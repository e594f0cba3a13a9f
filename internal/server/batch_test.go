package server_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/server"
	"chameleon/internal/wire"
)

// stubIndex is a server.Index that does no index work and allocates
// nothing: a key is present iff it is even, and its value is valOf(key)
// either way, so a reply shows which key it answers.
type stubIndex struct{}

func stubFound(key uint64) bool { return key%2 == 0 }

func (stubIndex) Lookup(key uint64) (uint64, bool) { return valOf(key), stubFound(key) }
func (stubIndex) LookupBatch(keys, vals []uint64, found []bool) {
	for i, k := range keys {
		vals[i], found[i] = valOf(k), stubFound(k)
	}
}
func (stubIndex) Range(lo, hi uint64, fn func(key, val uint64) bool) {}
func (stubIndex) InsertCtx(context.Context, uint64, uint64) error    { return nil }
func (stubIndex) DeleteCtx(context.Context, uint64) error            { return nil }
func (stubIndex) Checkpoint() error                                  { return nil }
func (stubIndex) Close() error                                       { return nil }
func (stubIndex) Len() int                                           { return 0 }
func (stubIndex) WALSize() int64                                     { return 0 }
func (stubIndex) Health() chameleon.Health                           { return chameleon.Health{} }
func (stubIndex) Err() error                                         { return nil }
func (stubIndex) CommitSeq() uint64                                  { return 0 }
func (stubIndex) WaitSeq(context.Context, uint64) error              { return nil }

// checkReplies decodes the n reply frames in data and fails unless ids
// first..first+n-1 each came back once, OK, as the op the burst sent; a GET
// must carry its key's value, the key being its id minus first plus one.
func checkReplies(t *testing.T, data []byte, op wire.Op, first uint64, n int) {
	t.Helper()
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		payload, size, err := wire.DecodeFrame(data)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		data = data[size:]
		res, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		j := res.ID - first
		if res.ID < first || j >= uint64(n) || seen[j] || !res.OK || res.Op != op {
			t.Fatalf("reply %d = %+v: want one OK %s per id in [%d, %d]", i, res, op, first, first+uint64(n)-1)
		}
		seen[j] = true
		if key := j + 1; op == wire.OpGet && (res.Val != valOf(key) || res.Found != stubFound(key)) {
			t.Fatalf("GET id %d (key %d) = %d, %v, want %d, %v", res.ID, key, res.Val, res.Found, valOf(key), stubFound(key))
		}
	}
}

// TestServeRunAllocs: once a connection is warm, a pipelined burst of GETs
// and one of INSERTs cost the server almost no heap allocation: every run
// reads its frames into the connection's buffer, decodes into a pooled
// batch, and the writer encodes the replies from it. The client side of the
// test writes pre-encoded bursts and reads the replies into one buffer, so
// the process's allocation count is the server's. It fails before batches:
// 2.1 allocations per GET and 3.1 per INSERT.
func TestServeRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := startServer(t, stubIndex{}, server.Options{})
	defer s.Close() //nolint:errcheck
	nc := dialHello(t, s)

	const (
		n      = 1024
		rounds = 4
		bound  = 0.05 // allocations per request
	)
	for _, tc := range []struct {
		op         wire.Op
		replyBytes int // one OK reply frame
	}{
		{wire.OpGet, 27},    // header, status, id, op, found, value
		{wire.OpInsert, 26}, // header, status, id, op, commit sequence
	} {
		first := uint64(1)
		if tc.op == wire.OpInsert {
			first = n + 1
		}
		var burst []byte
		for i := uint64(0); i < n; i++ {
			burst = wire.AppendRequest(burst, &wire.Request{ID: first + i, Op: tc.op, Key: i + 1, Val: valOf(i + 1)})
		}
		replies := make([]byte, n*tc.replyBytes)
		nc.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
		send := func() {
			if _, err := nc.Write(burst); err != nil {
				t.Fatalf("write %s burst: %v", tc.op, err)
			}
			if _, err := io.ReadFull(nc, replies); err != nil {
				t.Fatalf("read %s replies: %v", tc.op, err)
			}
		}
		// Warm up: the batch pool, the buffers' capacities and the
		// runtime's free goroutines reach their steady state.
		for range 3 {
			send()
		}
		// The best of three windows is the steady state: a window in which
		// the scheduler let more runs overlap than any before it pays once
		// for the extra batches and goroutines (~0.06 per request, seen
		// once in 200 runs on a loaded 2-vCPU box), where a per-request
		// allocation costs at least 1 in every window.
		per := math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range rounds {
				send()
			}
			runtime.ReadMemStats(&after)
			checkReplies(t, replies, tc.op, first, n)
			w := float64(after.Mallocs-before.Mallocs) / (rounds * n)
			t.Logf("%s: %.4f allocations per request", tc.op, w)
			per = min(per, w)
		}
		if per > bound {
			t.Errorf("%s: %.4f allocations per pipelined request in the best window, want <= %v", tc.op, per, bound)
		}
	}
}

// TestServeBatchRecycling recycles batches hard: with MaxPipeline 2 every
// run holds at most two requests, and four connections send many short
// mixed bursts, so a batch goes back to the pool and out again thousands of
// times. A batch reused before the writer encoded its replies shows as a
// reply with a wrong id or value (and as a data race under -race).
func TestServeBatchRecycling(t *testing.T) {
	s := startServer(t, stubIndex{}, server.Options{MaxPipeline: 2})
	defer s.Close() //nolint:errcheck
	const (
		conns  = 4
		rounds = 300
	)
	ncs := make([]net.Conn, conns)
	for i := range ncs {
		ncs[i] = dialHello(t, s)
	}
	ops := []wire.Op{wire.OpGet, wire.OpGet, wire.OpGet, wire.OpInsert, wire.OpDelete, wire.OpPing}
	var wg sync.WaitGroup
	for ci, nc := range ncs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := recycleRounds(nc, rand.New(rand.NewPCG(uint64(ci), 7)), ops, rounds); err != nil {
				t.Errorf("conn %d: %v", ci, err)
			}
		}()
	}
	wg.Wait()
}

// recycleRounds sends rounds bursts of 1-16 requests drawn from ops on nc,
// each GET's key derived from its id, and checks every burst's replies.
func recycleRounds(nc net.Conn, rng *rand.Rand, ops []wire.Op, rounds int) error {
	nc.SetDeadline(time.Now().Add(60 * time.Second)) //nolint:errcheck
	keyOf := func(id uint64) uint64 { return id*2654435761 + 3 }
	var id uint64
	var buf []byte
	sent := make(map[uint64]wire.Op)
	for r := 0; r < rounds; r++ {
		buf = buf[:0]
		for n := 1 + rng.IntN(16); n > 0; n-- {
			id++
			op := ops[rng.IntN(len(ops))]
			sent[id] = op
			buf = wire.AppendRequest(buf, &wire.Request{ID: id, Op: op, Key: keyOf(id), Val: valOf(keyOf(id))})
		}
		if _, err := nc.Write(buf); err != nil {
			return err
		}
		for len(sent) > 0 {
			payload, err := wire.ReadFrame(nc, nil)
			if err != nil {
				return err
			}
			res, err := wire.DecodeResponse(payload)
			if err != nil {
				return err
			}
			op, ok := sent[res.ID]
			if !ok || !res.OK || res.Op != op {
				return fmt.Errorf("round %d: reply %+v answers no request in flight", r, res)
			}
			delete(sent, res.ID)
			if key := keyOf(res.ID); op == wire.OpGet && (res.Val != valOf(key) || res.Found != stubFound(key)) {
				return fmt.Errorf("round %d: GET id %d = %d, %v, want %d, %v", r, res.ID, res.Val, res.Found, valOf(key), stubFound(key))
			}
		}
	}
	return nil
}
