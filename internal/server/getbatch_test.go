package server_test

import (
	"bufio"
	"context"
	"errors"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/server"
	"chameleon/internal/wire"
)

// TestPipelinedGetCoalescing writes a burst of GET frames in one TCP segment
// and checks that (a) every GET gets the right answer, (b) a trailing
// non-GET in the same burst is answered too (the batch flushes before it),
// and (c) the server accounted at least one coalesced multi-GET batch.
func TestPipelinedGetCoalescing(t *testing.T) {
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	defer ix.Close() //nolint:errcheck
	for k := uint64(1); k <= 100; k++ {
		if err := ix.Insert(k, valOf(k)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	s := startServer(t, ix, server.Options{})
	defer s.Close() //nolint:errcheck

	nc := dialHello(t, s)

	// One write carrying 32 GETs (even ids probe present keys, odd ids
	// absent ones) plus a PING, so the whole burst is buffered server-side
	// when the reader wakes and the coalescing path must engage.
	const gets = 32
	var buf []byte
	wantVal := make(map[uint64]uint64, gets)
	wantFound := make(map[uint64]bool, gets)
	for i := uint64(1); i <= gets; i++ {
		key := i
		if i%2 == 1 {
			key = 100_000 + i // absent
		}
		wantVal[i] = valOf(key)
		wantFound[i] = i%2 == 0
		buf = wire.AppendRequest(buf, &wire.Request{ID: i, Op: wire.OpGet, Key: key})
	}
	buf = wire.AppendRequest(buf, &wire.Request{ID: gets + 1, Op: wire.OpPing})
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write burst: %v", err)
	}

	nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(nc)
	seen := 0
	for seen < gets+1 {
		payload, err := wire.ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("read response %d: %v", seen, err)
		}
		res, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatalf("decode response: %v", err)
		}
		seen++
		if res.Op == wire.OpPing {
			if res.ID != gets+1 || !res.OK {
				t.Fatalf("ping response = %+v", res)
			}
			continue
		}
		if !res.OK {
			t.Fatalf("GET id=%d failed: %s", res.ID, res.Msg)
		}
		if res.Found != wantFound[res.ID] {
			t.Fatalf("GET id=%d found=%v, want %v", res.ID, res.Found, wantFound[res.ID])
		}
		if res.Found && res.Val != wantVal[res.ID] {
			t.Fatalf("GET id=%d val=%d, want %d", res.ID, res.Val, wantVal[res.ID])
		}
	}

	stats, _, err := dialClient(t, s, client.Options{}).Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.GetBatches == 0 || stats.BatchedGets < 2 {
		t.Fatalf("no coalesced GET batch accounted: batches=%d batched=%d",
			stats.GetBatches, stats.BatchedGets)
	}
	if stats.BatchedGets > gets {
		t.Fatalf("batched GETs %d exceeds GETs sent %d", stats.BatchedGets, gets)
	}
}

// TestLoneGetIsRunOfOne: a GET with nothing pipelined behind it runs as a
// GET run of one — it answers found and absent keys, a closed index answers
// closed, and the coalescing counters, which count runs of two or more, stay
// at zero.
func TestLoneGetIsRunOfOne(t *testing.T) {
	ctx := context.Background()
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	if err := ix.Insert(7, valOf(7)); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, ix, server.Options{})
	defer s.Close() //nolint:errcheck
	c := dialClient(t, s, client.Options{})
	defer c.Close() //nolint:errcheck

	if v, ok, err := c.Get(ctx, 7); err != nil || !ok || v != valOf(7) {
		t.Fatalf("Get(7) = %d,%v,%v; want %d,true", v, ok, err, valOf(7))
	}
	if _, ok, err := c.Get(ctx, 8); err != nil || ok {
		t.Fatalf("Get(8) = %v,%v; want absent", ok, err)
	}
	stats, _, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GetBatches != 0 || stats.BatchedGets != 0 {
		t.Fatalf("lone GETs counted as coalesced: batches=%d batched=%d", stats.GetBatches, stats.BatchedGets)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ctx, 7); !errors.Is(err, chameleon.ErrIndexClosed) {
		t.Fatalf("Get on a closed index: %v, want ErrIndexClosed", err)
	}
}
