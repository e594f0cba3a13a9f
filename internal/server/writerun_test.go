package server_test

import (
	"bufio"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/server"
	"chameleon/internal/wire"
)

// countingListener hands out connections whose Writes it counts: the
// server's side of every socket, so a test sees its flushes.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: nc, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (cc countingConn) Write(p []byte) (int, error) {
	cc.writes.Add(1)
	return cc.Conn.Write(p)
}

// startCountingServer serves ix on loopback and counts the server's socket
// writes into writes.
func startCountingServer(t *testing.T, ix server.Index, writes *atomic.Int64) *server.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(ix, server.Options{})
	s.SetListener(countingListener{Listener: ln, writes: writes})
	go s.Serve()                    //nolint:errcheck
	t.Cleanup(func() { s.Close() }) //nolint:errcheck
	return s
}

// sendBurst writes reqs to nc in one write and reads back one reply each,
// in the order they leave the server.
func sendBurst(t *testing.T, nc net.Conn, reqs []*wire.Request) []*wire.Response {
	t.Helper()
	var buf []byte
	for _, req := range reqs {
		buf = wire.AppendRequest(buf, req)
	}
	nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	br := bufio.NewReader(nc)
	out := make([]*wire.Response, len(reqs))
	for i := range out {
		payload, err := wire.ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if out[i], err = wire.DecodeResponse(payload); err != nil {
			t.Fatalf("decode reply %d: %v", i, err)
		}
	}
	return out
}

// insertBurst is n INSERTs of fresh keys, ids 1..n.
func insertBurst(n int) []*wire.Request {
	reqs := make([]*wire.Request, n)
	for i := range reqs {
		key := uint64(i + 1)
		reqs[i] = &wire.Request{ID: key, Op: wire.OpInsert, Key: key, Val: valOf(key)}
	}
	return reqs
}

// checkBurstAcked fails unless every reply is an OK with a commit-sequence
// token and every id came back once.
func checkBurstAcked(t *testing.T, replies []*wire.Response) {
	t.Helper()
	seen := make(map[uint64]bool, len(replies))
	for _, res := range replies {
		if !res.OK || !res.HasSeq || seen[res.ID] {
			t.Fatalf("reply %+v: want one OK with a sequence token per id", res)
		}
		seen[res.ID] = true
	}
}

// TestServeWriteRunOneEntryOneFlush: 64 INSERTs that arrive in one client
// write are one run. They reach the index in at most two group-commit
// batches, their 64 replies leave the server in at most two socket writes
// (64 when the writer flushes per reply), and STATS counts the run.
func TestServeWriteRunOneEntryOneFlush(t *testing.T) {
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	defer ix.Close() //nolint:errcheck
	var writes atomic.Int64
	s := startCountingServer(t, ix, &writes)
	nc := dialHello(t, s)

	const n = 64
	batches, flushes := ix.Health().Batches, writes.Load()
	checkBurstAcked(t, sendBurst(t, nc, insertBurst(n)))
	if got := ix.Health().Batches - batches; got > 2 {
		t.Fatalf("a burst of %d inserts took %d group-commit batches, want <= 2", n, got)
	}
	if got := writes.Load() - flushes; got > 2 {
		t.Fatalf("%d replies left the server in %d socket writes, want <= 2", n, got)
	}
	if ix.Len() != n {
		t.Fatalf("Len %d after the burst, want %d", ix.Len(), n)
	}

	stats, _, err := dialClient(t, s, client.Options{}).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.WriteBatches != 1 || stats.BatchedWrites != n {
		t.Fatalf("STATS write_batches %d, batched_writes %d after one burst of %d, want 1, %d",
			stats.WriteBatches, stats.BatchedWrites, n, n)
	}
}

// TestServeWriteRunSerialAnswers: one run holding a duplicate insert, an
// insert then a delete of one key, and a delete of an absent key gets the
// answers serial execution gives, with the replies in run order.
func TestServeWriteRunSerialAnswers(t *testing.T) {
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	defer ix.Close() //nolint:errcheck
	if err := ix.Insert(10, valOf(10)); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, ix, server.Options{})
	defer s.Close() //nolint:errcheck
	nc := dialHello(t, s)

	reqs := []*wire.Request{
		{ID: 1, Op: wire.OpInsert, Key: 10, Val: 1}, // duplicate
		{ID: 2, Op: wire.OpInsert, Key: 20, Val: valOf(20)},
		{ID: 3, Op: wire.OpDelete, Key: 20}, // deletes id 2's key
		{ID: 4, Op: wire.OpDelete, Key: 30}, // absent
		{ID: 5, Op: wire.OpInsert, Key: 40, Val: valOf(40)},
	}
	want := []wire.ErrCode{wire.ErrCodeDuplicateKey, 0, 0, wire.ErrCodeKeyNotFound, 0}
	for i, res := range sendBurst(t, nc, reqs) {
		if res.ID != reqs[i].ID || res.OK != (want[i] == 0) || res.Err != want[i] {
			t.Fatalf("reply %d = id %d ok %v code %v, want id %d code %v", i, res.ID, res.OK, res.Err, reqs[i].ID, want[i])
		}
	}
	for k, present := range map[uint64]bool{10: true, 20: false, 30: false, 40: true} {
		if _, ok := ix.Lookup(k); ok != present {
			t.Fatalf("key %d present = %v after the run, want %v", k, ok, present)
		}
	}
}

// wrappedIndex embeds a handle the way a decorator does, so the server does
// not recognize it and takes the per-op path; it counts what reaches it.
type wrappedIndex struct {
	*chameleon.DurableIndex
	inserts atomic.Int64
}

func (w *wrappedIndex) InsertCtx(ctx context.Context, key, val uint64) error {
	w.inserts.Add(1)
	return w.DurableIndex.InsertCtx(ctx, key, val)
}

// TestServeWriteRunOtherIndex: an Index the server does not know by type
// sees each write of a run through its own InsertCtx, and the run's replies
// still leave the server together.
func TestServeWriteRunOtherIndex(t *testing.T) {
	ix := &wrappedIndex{DurableIndex: openIx(t, t.TempDir(), chameleon.DirOptions{})}
	defer ix.Close() //nolint:errcheck
	var writes atomic.Int64
	s := startCountingServer(t, ix, &writes)
	nc := dialHello(t, s)

	const n = 64
	flushes := writes.Load()
	checkBurstAcked(t, sendBurst(t, nc, insertBurst(n)))
	if got := ix.inserts.Load(); got != n {
		t.Fatalf("the wrapper saw %d InsertCtx calls for %d inserts", got, n)
	}
	if got := writes.Load() - flushes; got > 2 {
		t.Fatalf("%d replies left the server in %d socket writes, want <= 2", n, got)
	}
}
