package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/server"
	"chameleon/internal/wire"
)

// valOf is the value every test stores for a key, so any read can verify
// the pair was not torn in flight or in the index.
func valOf(key uint64) uint64 { return key ^ 0x9e3779b97f4a7c15 }

func openIx(t *testing.T, dir string, dopts chameleon.DirOptions) *chameleon.DurableIndex {
	t.Helper()
	d, err := chameleon.OpenDir(dir, dopts)
	if err != nil {
		t.Fatalf("OpenDir(%s): %v", dir, err)
	}
	return d
}

// startServer opens (or reopens) an index at dir and serves it on a fresh
// loopback port.
func startServer(t *testing.T, ix server.Index, sopts server.Options) *server.Server {
	t.Helper()
	s := server.New(ix, sopts)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go s.Serve() //nolint:errcheck
	return s
}

func dialClient(t *testing.T, s *server.Server, copts client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(s.Addr().String(), copts)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return c
}

// helloID is the request id dialHello's HELLO uses; tests number their own
// requests from 1, so it never collides.
const helloID = ^uint64(0)

// dialHello opens a raw socket to s and completes the mandatory HELLO, for
// tests that write frames by hand. The connection closes with the test.
func dialHello(t *testing.T, s *server.Server) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })                 //nolint:errcheck
	nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	res := rawRoundTrip(t, nc, &wire.Request{
		ID: helloID, Op: wire.OpHello, Version: wire.ProtocolVersion,
	})
	if !res.OK || res.ID != helloID || res.Op != wire.OpHello {
		t.Fatalf("HELLO answered %+v", res)
	}
	nc.SetDeadline(time.Time{}) //nolint:errcheck
	return nc
}

// rawRoundTrip writes one request frame to nc and reads back one response.
func rawRoundTrip(t *testing.T, nc net.Conn, req *wire.Request) *wire.Response {
	t.Helper()
	if _, err := nc.Write(wire.AppendRequest(nil, req)); err != nil {
		t.Fatalf("write %s: %v", req.Op, err)
	}
	payload, err := wire.ReadFrame(nc, nil)
	if err != nil {
		t.Fatalf("%s reply: %v", req.Op, err)
	}
	res, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatalf("decode %s reply: %v", req.Op, err)
	}
	return res
}

// TestServeBasicOps drives every opcode end-to-end over a real socket and
// checks the error mapping round-trips to the in-process sentinels.
func TestServeBasicOps(t *testing.T) {
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	defer ix.Close() //nolint:errcheck
	s := startServer(t, ix, server.Options{})
	defer s.Close() //nolint:errcheck
	c := dialClient(t, s, client.Options{})
	defer c.Close() //nolint:errcheck
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	for k := uint64(10); k < 20; k++ {
		if err := c.Insert(ctx, k, valOf(k)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if v, ok, err := c.Get(ctx, 15); err != nil || !ok || v != valOf(15) {
		t.Fatalf("Get(15) = %d, %v, %v", v, ok, err)
	}
	if _, ok, err := c.Get(ctx, 999); err != nil || ok {
		t.Fatalf("Get(999) = found=%v err=%v, want miss", ok, err)
	}

	// Error mapping: the remote errors are the in-process sentinels.
	if err := c.Insert(ctx, 15, 0); !errors.Is(err, chameleon.ErrDuplicateKey) {
		t.Fatalf("duplicate Insert: %v, want ErrDuplicateKey", err)
	}
	if err := c.Delete(ctx, 999); !errors.Is(err, chameleon.ErrKeyNotFound) {
		t.Fatalf("Delete(999): %v, want ErrKeyNotFound", err)
	}
	if err := c.Delete(ctx, 10); err != nil {
		t.Fatalf("Delete(10): %v", err)
	}

	pairs, more, err := c.Range(ctx, 0, 100, 0)
	if err != nil || more {
		t.Fatalf("Range: more=%v err=%v", more, err)
	}
	want := []uint64{11, 12, 13, 14, 15, 16, 17, 18, 19}
	if len(pairs) != len(want) {
		t.Fatalf("Range returned %d pairs, want %d", len(pairs), len(want))
	}
	for i, p := range pairs {
		if p.Key != want[i] || p.Val != valOf(p.Key) {
			t.Fatalf("pair %d = %+v, want key %d", i, p, want[i])
		}
	}

	// Range paging: a limit of 2 forces More and the pages stitch together.
	var paged []wire.Pair
	lo := uint64(0)
	for {
		ps, more, err := c.Range(ctx, lo, 100, 2)
		if err != nil {
			t.Fatalf("paged Range: %v", err)
		}
		paged = append(paged, ps...)
		if !more {
			break
		}
		lo = ps[len(ps)-1].Key + 1
	}
	if len(paged) != len(want) {
		t.Fatalf("paged Range returned %d pairs, want %d", len(paged), len(want))
	}

	stats, raw, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.State != "ok" || stats.Len != ix.Len() || stats.Conns < 1 {
		t.Fatalf("Stats = %+v (raw %s)", stats, raw)
	}
	if stats.Batches == 0 || stats.BatchedOps == 0 {
		t.Fatalf("writes did not pass through group commit: %+v", stats)
	}
}

// TestServePipelinedBatchPath is the acceptance check that remote
// pipelining actually feeds the group-commit amortization: 8 connections'
// worth of concurrent writes must land in shared WAL batches, not
// one-fsync-per-op, and every acked write must read back.
func TestServePipelinedBatchPath(t *testing.T) {
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	defer ix.Close() //nolint:errcheck
	s := startServer(t, ix, server.Options{})
	defer s.Close() //nolint:errcheck

	const conns = 8
	const perConn = 4
	const perWorker = 60
	var acked atomic.Uint64
	var wg sync.WaitGroup
	for cn := 0; cn < conns; cn++ {
		// One Dial per worker group = one real TCP connection each.
		c := dialClient(t, s, client.Options{Conns: 1, MaxPipeline: perConn})
		defer c.Close() //nolint:errcheck
		for w := 0; w < perConn; w++ {
			wg.Add(1)
			go func(base uint64) {
				defer wg.Done()
				for i := uint64(0); i < perWorker; i++ {
					key := base + i
					if err := c.Insert(context.Background(), key, valOf(key)); err != nil {
						t.Errorf("Insert(%d): %v", key, err)
						return
					}
					acked.Add(1)
				}
			}(uint64(cn*perConn+w+1) << 32)
		}
	}
	wg.Wait()

	c := dialClient(t, s, client.Options{})
	defer c.Close() //nolint:errcheck
	stats, _, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	writes := acked.Load()
	if stats.BatchedOps < writes {
		t.Fatalf("BatchedOps %d < %d acked writes: some acked write skipped the WAL batch path", stats.BatchedOps, writes)
	}
	if stats.BatchedOps <= writes/2 {
		t.Fatalf("batch path saw %d of %d writes", stats.BatchedOps, writes)
	}
	if stats.Batches >= stats.BatchedOps {
		t.Fatalf("no amortization: %d batches for %d ops (mean batch 1.0)", stats.Batches, stats.BatchedOps)
	}
	t.Logf("%d writes in %d batches (mean %.1f, max %d)", stats.BatchedOps, stats.Batches,
		float64(stats.BatchedOps)/float64(stats.Batches), stats.MaxBatch)

	// Every acked write reads back remotely.
	for cn := 0; cn < conns*perConn; cn++ {
		base := uint64(cn+1) << 32
		probe := base + perWorker - 1
		if v, ok, err := c.Get(context.Background(), probe); err != nil || !ok || v != valOf(probe) {
			t.Fatalf("Get(%d) = %d, %v, %v", probe, v, ok, err)
		}
	}
}

// TestServeGracefulShutdown is the drain contract: SIGTERM-style Shutdown
// while writers are mid-pipeline must finish and flush in-flight requests,
// checkpoint, and close — and after a restart from the same directory,
// every write that was acked before the drain reads back, and nothing that
// was never submitted appears.
func TestServeGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	ix := openIx(t, dir, chameleon.DirOptions{MaxPending: 64, BlockOnFull: true})
	s := startServer(t, ix, server.Options{OwnsIndex: true})

	const writers = 8
	ackedKeys := make([][]uint64, writers)
	var submitted [writers]atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		c := dialClient(t, s, client.Options{Conns: 1, MaxPipeline: 8, MaxRetries: 0})
		defer c.Close() //nolint:errcheck
		wg.Add(1)
		go func(w int, c *client.Client) {
			defer wg.Done()
			base := uint64(w+1) << 32
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := base + i
				submitted[w].Store(i + 1)
				err := c.Insert(context.Background(), key, valOf(key))
				if err == nil {
					ackedKeys[w] = append(ackedKeys[w], key)
					continue
				}
				// Once the drain begins every error is fine — closed,
				// cancelled, or the connection going away — but a writer
				// must never hang, and an errored write must never have
				// been acked.
				return
			}
		}(w, c)
	}

	time.Sleep(200 * time.Millisecond) // let the pipelines fill
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	drainTime := time.Since(start)
	close(stop)
	wg.Wait()

	if ix.Err() == nil || !errors.Is(ix.Err(), chameleon.ErrIndexClosed) {
		t.Fatalf("index not closed after Shutdown: %v", ix.Err())
	}

	// Recover from the same directory: the acked prefix must be intact.
	reopened := openIx(t, dir, chameleon.DirOptions{})
	defer reopened.Close() //nolint:errcheck
	total := 0
	for w := 0; w < writers; w++ {
		for _, key := range ackedKeys[w] {
			if v, ok := reopened.Lookup(key); !ok || v != valOf(key) {
				t.Fatalf("acked write %d lost across drain+restart (ok=%v v=%d)", key, ok, v)
			}
		}
		total += len(ackedKeys[w])
	}
	// No phantoms: everything present was actually submitted.
	phantoms := 0
	reopened.Range(0, ^uint64(0), func(k, v uint64) bool {
		w := int(k>>32) - 1
		if w < 0 || w >= writers || k&0xffffffff >= submitted[w].Load() || v != valOf(k) {
			phantoms++
		}
		return true
	})
	if phantoms > 0 {
		t.Fatalf("%d phantom keys after restart", phantoms)
	}
	if total == 0 {
		t.Fatal("no writes were acked before the drain; test proved nothing")
	}
	t.Logf("drained in %v with %d acked writes, %d total after restart", drainTime, total, reopened.Len())

	// The drain checkpointed: recovery found a snapshot, not a long WAL.
	if wal := reopened.WALSize(); wal != 0 {
		t.Fatalf("drain did not checkpoint: reopened WAL is %d bytes", wal)
	}
}

// TestServeDrainRearmRace pins the drain against a reader between
// dispatching a request and re-arming its idle deadline. Shutdown runs
// inside that window: it sets the drain flag and kicks the reader's
// deadline before the reader re-arms it. Unless the reader re-checks the
// flag after arming, it blocks in its next read until the client speaks or
// the idle timeout passes, and the drain runs out its context: forced, no
// checkpoint. The drain must instead return nil promptly, answer the
// in-flight INSERT and checkpoint.
func TestServeDrainRearmRace(t *testing.T) {
	dir := t.TempDir()
	ix := openIx(t, dir, chameleon.DirOptions{})
	var s *server.Server
	drained := make(chan error, 1)
	var rearms atomic.Int32
	// The one connection's reader re-arms before it reads HELLO, after
	// HELLO, and after dispatching the INSERT: the third is the window.
	server.SetRearmFailpoint(func() {
		if rearms.Add(1) != 3 {
			return
		}
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			drained <- s.Shutdown(ctx)
		}()
		for !s.DrainKicked() {
			time.Sleep(time.Millisecond)
		}
	})
	t.Cleanup(func() { server.SetRearmFailpoint(nil) })
	s = startServer(t, ix, server.Options{OwnsIndex: true})

	nc := dialHello(t, s)
	nc.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	res := rawRoundTrip(t, nc, &wire.Request{ID: 1, Op: wire.OpInsert, Key: 42, Val: valOf(42)})
	if !res.OK {
		t.Fatalf("in-flight INSERT answered %+v", res)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain with the kick before the re-arm: %v, want a graceful nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never returned")
	}

	reopened := openIx(t, dir, chameleon.DirOptions{})
	defer reopened.Close() //nolint:errcheck
	if v, ok := reopened.Lookup(42); !ok || v != valOf(42) {
		t.Fatalf("acked INSERT lost across the drain (ok=%v v=%d)", ok, v)
	}
	if wal := reopened.WALSize(); wal != 0 {
		t.Fatalf("drain did not checkpoint: reopened WAL is %d bytes", wal)
	}
}

// TestServeForcedShutdown: when the drain deadline expires, in-flight
// operations are cancelled (two-state: no durable effect) and blocked
// admission waiters wake — nothing hangs, and recovery still satisfies
// acked ⊆ present ⊆ submitted.
func TestServeForcedShutdown(t *testing.T) {
	dir := t.TempDir()
	ix := openIx(t, dir, chameleon.DirOptions{MaxPending: 4, BlockOnFull: true})
	s := startServer(t, ix, server.Options{OwnsIndex: true})

	const writers = 16
	var mu sync.Mutex
	acked := make(map[uint64]bool)
	var submitted [writers]atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		c := dialClient(t, s, client.Options{Conns: 1, MaxPipeline: 4, MaxRetries: 0})
		defer c.Close() //nolint:errcheck
		wg.Add(1)
		go func(w int, c *client.Client) {
			defer wg.Done()
			base := uint64(w+1) << 32
			for i := uint64(0); ; i++ {
				key := base + i
				submitted[w].Store(i + 1)
				if err := c.Insert(context.Background(), key, valOf(key)); err != nil {
					return
				}
				mu.Lock()
				acked[key] = true
				mu.Unlock()
			}
		}(w, c)
	}

	time.Sleep(150 * time.Millisecond)
	// An already-expired deadline forces the cancel path immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("forced Shutdown: %v", err)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("writers hung after forced shutdown: admission waiters did not wake")
	}

	reopened := openIx(t, dir, chameleon.DirOptions{})
	defer reopened.Close() //nolint:errcheck
	for key := range acked {
		if v, ok := reopened.Lookup(key); !ok || v != valOf(key) {
			t.Fatalf("acked write %d lost across forced shutdown", key)
		}
	}
	phantoms := 0
	reopened.Range(0, ^uint64(0), func(k, v uint64) bool {
		w := int(k>>32) - 1
		if w < 0 || w >= writers || k&0xffffffff >= submitted[w].Load() || v != valOf(k) {
			phantoms++
		}
		return true
	})
	if phantoms > 0 {
		t.Fatalf("%d phantom keys after forced shutdown", phantoms)
	}
}

// TestServeRangeConsistency: RANGE served remotely while group-commit
// writers are landing must (a) never tear a pair, (b) never invent a key,
// (c) never lose a key acked before the scan began, and (d) once writers
// quiesce, agree exactly with the in-process index.
func TestServeRangeConsistency(t *testing.T) {
	// No fsync: the writes only need to race the scans, and the storm is
	// large enough that each writer's key space outgrows one RANGE page.
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{Sync: chameleon.SyncNone})
	defer ix.Close() //nolint:errcheck
	s := startServer(t, ix, server.Options{})
	defer s.Close() //nolint:errcheck

	// Each writer's key space outgrows one RANGE response (4096 pairs), so
	// the remote scans page mid-write-storm.
	const writers = 4
	const perWriter = 4500
	var ackedN, submittedN [writers]atomic.Uint64
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		c := dialClient(t, s, client.Options{Conns: 1, MaxPipeline: 8})
		defer c.Close() //nolint:errcheck
		wwg.Add(1)
		go func(w int, c *client.Client) {
			defer wwg.Done()
			base := uint64(w+1) << 32
			// Pipeline within a writer but keep ack order per slot simple:
			// 8 lanes each inserting a disjoint arithmetic progression.
			var lanes sync.WaitGroup
			for lane := 0; lane < 8; lane++ {
				lanes.Add(1)
				go func(lane int) {
					defer lanes.Done()
					for i := lane; i < perWriter; i += 8 {
						key := base + uint64(i)
						submittedN[w].Add(1)
						if err := c.Insert(context.Background(), key, valOf(key)); err != nil {
							t.Errorf("writer %d insert %d: %v", w, key, err)
							return
						}
						ackedN[w].Add(1)
					}
				}(lane)
			}
			lanes.Wait()
		}(w, c)
	}

	// Concurrent remote scans, checking the invariants that hold even
	// mid-storm. Acked counts are snapshotted before each scan: any key
	// acked before the scan started must appear (it was applied before its
	// ack was sent, so it was in the tree before the scan began).
	scanErr := make(chan error, 1)
	scanStop := make(chan struct{})
	var swg sync.WaitGroup
	rc := dialClient(t, s, client.Options{Conns: 2, MaxPipeline: 4})
	defer rc.Close() //nolint:errcheck
	report := func(err error) {
		select {
		case scanErr <- err:
		default:
		}
	}
	for r := 0; r < 2; r++ {
		swg.Add(1)
		go func(r int) {
			defer swg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 0xc0ffee))
			for {
				select {
				case <-scanStop:
					return
				default:
				}
				w := rng.IntN(writers)
				base := uint64(w+1) << 32
				ackedBefore := ackedN[w].Load()
				pairs, err := rc.RangeAll(context.Background(), base, base+perWriter)
				if err != nil {
					report(fmt.Errorf("RangeAll(writer %d): %w", w, err))
					return
				}
				seen := make(map[uint64]bool, len(pairs))
				var prev uint64
				for i, p := range pairs {
					if i > 0 && p.Key <= prev {
						report(fmt.Errorf("scan not strictly ascending at %d", p.Key))
						return
					}
					prev = p.Key
					if p.Val != valOf(p.Key) {
						report(fmt.Errorf("torn pair: key %d carries val %d", p.Key, p.Val))
						return
					}
					idx := p.Key - base
					if idx >= uint64(perWriter) {
						report(fmt.Errorf("phantom key %d outside writer %d's space", p.Key, w))
						return
					}
					seen[p.Key] = true
				}
				if uint64(len(pairs)) > submittedN[w].Load() {
					report(fmt.Errorf("scan saw %d keys, writer only submitted %d", len(pairs), submittedN[w].Load()))
					return
				}
				// Completeness is per-lane: within each of the 8 lanes acks
				// are sequential, so at least ackedBefore keys total existed
				// pre-scan; weaker but exact: every key the model says was
				// acked pre-scan must be present. Per-lane ack counts aren't
				// tracked individually, so check the aggregate bound.
				if uint64(len(pairs)) < ackedBefore {
					report(fmt.Errorf("scan lost acked keys: saw %d, %d were acked before it began", len(pairs), ackedBefore))
					return
				}
				_ = seen
			}
		}(r)
	}

	wwg.Wait()
	close(scanStop)
	swg.Wait()
	select {
	case err := <-scanErr:
		t.Fatal(err)
	default:
	}

	// Quiesced: the remote view equals the in-process oracle exactly.
	for w := 0; w < writers; w++ {
		base := uint64(w+1) << 32
		remote, err := rc.RangeAll(context.Background(), base, base+perWriter)
		if err != nil {
			t.Fatalf("final RangeAll: %v", err)
		}
		var local []wire.Pair
		ix.Range(base, base+perWriter, func(k, v uint64) bool {
			local = append(local, wire.Pair{Key: k, Val: v})
			return true
		})
		if len(remote) != len(local) || len(remote) != perWriter {
			t.Fatalf("writer %d: remote %d vs oracle %d vs inserted %d", w, len(remote), len(local), perWriter)
		}
		for i := range remote {
			if remote[i] != local[i] {
				t.Fatalf("writer %d pair %d: remote %+v vs oracle %+v", w, i, remote[i], local[i])
			}
		}
	}
}

// TestServeConnLimit: the server refuses connection MaxConns+1 with a typed
// conn-limit error instead of hanging or silently dropping.
func TestServeConnLimit(t *testing.T) {
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	defer ix.Close() //nolint:errcheck
	s := startServer(t, ix, server.Options{MaxConns: 2})
	defer s.Close() //nolint:errcheck

	c1 := dialClient(t, s, client.Options{})
	defer c1.Close() //nolint:errcheck
	c2 := dialClient(t, s, client.Options{})
	defer c2.Close() //nolint:errcheck

	// The refusal frame can in principle lose a race with the connection
	// teardown (an RST flushing the receive queue), so sample a few dials:
	// every one must fail, and at least one must surface the typed code.
	sawTyped := false
	for i := 0; i < 5; i++ {
		c3, err := client.Dial(s.Addr().String(), client.Options{MaxRetries: 0})
		if err == nil {
			c3.Close() //nolint:errcheck
			t.Fatal("third connection accepted past MaxConns=2")
		}
		var re *wire.RemoteError
		if errors.As(err, &re) && re.Code == wire.ErrCodeConnLimit {
			sawTyped = true
			break
		}
		t.Logf("dial %d refused untyped: %v", i, err)
	}
	if !sawTyped {
		t.Fatal("no refusal carried ErrCodeConnLimit")
	}
	// The limit frees with the connection.
	c1.Close() //nolint:errcheck
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := client.Dial(s.Addr().String(), client.Options{})
		if err == nil {
			c3.Close() //nolint:errcheck
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeHostileBytes throws raw garbage at the socket: an unframeable
// stream gets a typed malformed reply on the connection slot and a hangup;
// a well-framed but undecodable payload fails only that request and the
// connection keeps working.
func TestServeHostileBytes(t *testing.T) {
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	defer ix.Close() //nolint:errcheck
	s := startServer(t, ix, server.Options{})
	defer s.Close() //nolint:errcheck

	// Unframeable: length prefix lies about a gigabyte.
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hostile := make([]byte, 12)
	binary.LittleEndian.PutUint32(hostile, 1<<30)
	if _, err := nc.Write(hostile); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	payload, err := wire.ReadFrame(nc, nil)
	if err != nil {
		t.Fatalf("no error frame before hangup: %v", err)
	}
	res, err := wire.DecodeResponse(payload)
	if err != nil || res.ID != 0 || res.Err != wire.ErrCodeMalformed {
		t.Fatalf("conn-level reply = %+v (%v), want id 0 malformed", res, err)
	}
	if _, err := wire.ReadFrame(nc, nil); err == nil {
		t.Fatal("server kept the unframeable connection open")
	}
	nc.Close() //nolint:errcheck

	// Well-framed garbage: unknown opcode inside a valid frame. The request
	// fails typed; the connection survives and serves the next request.
	nc2 := dialHello(t, s)
	bad := append([]byte{0x6f}, make([]byte, 8)...) // opcode 0x6f, id 0
	binary.LittleEndian.PutUint64(bad[1:], 77)
	frame := wireTestFrame(bad)
	if _, err := nc2.Write(frame); err != nil {
		t.Fatal(err)
	}
	nc2.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	payload, err = wire.ReadFrame(nc2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err = wire.DecodeResponse(payload)
	if err != nil || res.ID != 77 || res.Err != wire.ErrCodeMalformed {
		t.Fatalf("malformed-request reply = %+v (%v)", res, err)
	}
	ping := wire.AppendRequest(nil, &wire.Request{ID: 78, Op: wire.OpPing})
	if _, err := nc2.Write(ping); err != nil {
		t.Fatal(err)
	}
	payload, err = wire.ReadFrame(nc2, nil)
	if err != nil {
		t.Fatalf("connection did not survive a malformed request: %v", err)
	}
	if res, err := wire.DecodeResponse(payload); err != nil || !res.OK || res.ID != 78 {
		t.Fatalf("ping after malformed request = %+v (%v)", res, err)
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// wireTestFrame wraps a raw payload in a valid frame envelope (the test
// needs a *valid* frame carrying an *invalid* message).
func wireTestFrame(payload []byte) []byte {
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	return frame
}

// soakDuration picks the mixed-workload soak length: the CI serve-soak job
// sets CHAMELEON_SERVE_SOAK_SECONDS=30; locally it stays short.
func soakDuration(t *testing.T) time.Duration {
	if s := os.Getenv("CHAMELEON_SERVE_SOAK_SECONDS"); s != "" {
		sec, err := strconv.Atoi(s)
		if err != nil || sec <= 0 {
			t.Fatalf("bad CHAMELEON_SERVE_SOAK_SECONDS=%q", s)
		}
		return time.Duration(sec) * time.Second
	}
	if testing.Short() {
		return 800 * time.Millisecond
	}
	return 2 * time.Second
}

// TestServeSoak is the serving oracle: a mixed read/write/delete workload
// from many connections through a real socket, a graceful restart in the
// middle, and at the end a key-by-key audit — a key exists iff its last
// acked mutation was an insert, with its exact value; anything else is
// either a lost ack or a phantom.
func TestServeSoak(t *testing.T) {
	dir := t.TempDir()
	dur := soakDuration(t)
	dopts := chameleon.DirOptions{MaxPending: 256, BlockOnFull: true}
	ix := openIx(t, dir, dopts)
	s := startServer(t, ix, server.Options{OwnsIndex: true})

	const workers = 8
	type model struct {
		present map[uint64]bool // key -> acked-present
		unknown map[uint64]bool // ambiguous outcome (conn died mid-call)
		maxKey  uint64
	}
	models := make([]*model, workers)
	for w := range models {
		models[w] = &model{present: make(map[uint64]bool), unknown: make(map[uint64]bool)}
	}

	// runPhase drives the workload until the deadline; each worker owns a
	// key stripe so its model is exact without cross-worker coordination.
	runPhase := func(s *server.Server, until time.Time) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			c := dialClient(t, s, client.Options{Conns: 1, MaxPipeline: 8, MaxRetries: 2})
			wg.Add(1)
			go func(w int, c *client.Client) {
				defer wg.Done()
				defer c.Close() //nolint:errcheck
				m := models[w]
				base := uint64(w+1) << 32
				rng := rand.New(rand.NewPCG(uint64(w), 0x50a7))
				for time.Now().Before(until) {
					switch op := rng.IntN(100); {
					case op < 50 && m.maxKey > 0: // read own key, audit inline
						key := base + rng.Uint64N(m.maxKey)
						v, ok, err := c.Get(context.Background(), key)
						if err != nil {
							continue // transport blip; state unchanged
						}
						if m.unknown[key] {
							continue
						}
						if ok != m.present[key] {
							t.Errorf("worker %d: Get(%d)=%v but model says %v", w, key, ok, m.present[key])
							return
						}
						if ok && v != valOf(key) {
							t.Errorf("worker %d: torn value for %d", w, key)
							return
						}
					case op < 85: // insert a fresh key
						key := base + m.maxKey
						m.maxKey++
						err := c.Insert(context.Background(), key, valOf(key))
						switch {
						case err == nil:
							m.present[key] = true
						case isCleanRejection(err):
							// guaranteed no durable effect; stays absent
						default:
							m.unknown[key] = true
						}
					case m.maxKey > 0: // delete one of our acked keys
						key := base + rng.Uint64N(m.maxKey)
						if m.unknown[key] || !m.present[key] {
							continue
						}
						err := c.Delete(context.Background(), key)
						switch {
						case err == nil:
							m.present[key] = false
						case isCleanRejection(err):
						default:
							m.unknown[key] = true
						}
					}
				}
			}(w, c)
		}
		wg.Wait()
	}

	half := time.Now().Add(dur / 2)
	runPhase(s, half)

	// Graceful restart in the middle of the soak: drain, checkpoint, close,
	// reopen the same directory, keep going.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("mid-soak Shutdown: %v", err)
	}
	cancel()
	ix = openIx(t, dir, dopts)
	s = startServer(t, ix, server.Options{OwnsIndex: true})
	runPhase(s, time.Now().Add(dur/2))

	// Final restart, then the audit runs against recovered state only.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	if err := s.Shutdown(ctx2); err != nil {
		t.Fatalf("final Shutdown: %v", err)
	}
	cancel2()
	final := openIx(t, dir, chameleon.DirOptions{})
	defer final.Close() //nolint:errcheck

	var audited, present int
	for w := 0; w < workers; w++ {
		m := models[w]
		base := uint64(w+1) << 32
		for i := uint64(0); i < m.maxKey; i++ {
			key := base + i
			v, ok := final.Lookup(key)
			if ok && v != valOf(key) {
				t.Fatalf("worker %d: torn value for %d after restart", w, key)
			}
			if m.unknown[key] {
				continue // ambiguous ack: either outcome is within contract
			}
			audited++
			if ok != m.present[key] {
				t.Fatalf("worker %d key %d: exists=%v but last ack says %v", w, key, ok, m.present[key])
			}
			if ok {
				present++
			}
		}
	}
	// No phantoms outside every worker's submitted stripe.
	final.Range(0, ^uint64(0), func(k, v uint64) bool {
		w := int(k>>32) - 1
		if w < 0 || w >= workers || k&0xffffffff >= models[w].maxKey {
			t.Errorf("phantom key %d", k)
			return false
		}
		return true
	})
	if audited == 0 {
		t.Fatal("soak audited nothing")
	}
	t.Logf("soak: %v, %d keys audited (%d present), %d in index", dur, audited, present, final.Len())
}

// isCleanRejection reports whether err is a typed rejection that guarantees
// the mutation had no durable effect.
func isCleanRejection(err error) bool {
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return re.Code.Retryable() || re.Code == wire.ErrCodeClosed || re.Code == wire.ErrCodePoisoned
	}
	return false
}

// TestServeShardedIndex serves a range-partitioned index through the same
// server: remote ops route to the right shards, cross-shard Range pages
// stitch correctly, and STATS reports the shard count with per-shard states.
func TestServeShardedIndex(t *testing.T) {
	dir := t.TempDir()
	ix, err := chameleon.OpenShardedDir(dir, chameleon.ShardDirOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close() //nolint:errcheck
	s := startServer(t, ix, server.Options{})
	defer s.Close() //nolint:errcheck
	c := dialClient(t, s, client.Options{})
	defer c.Close() //nolint:errcheck
	ctx := context.Background()

	// Keys in every shard of the default equi-width split (boundaries just
	// below 1<<62, 2<<62 and 3<<62) plus both extremes; every write must land in its
	// own shard's WAL and read back through the router.
	keys := []uint64{0, 1 << 62, 1<<62 + 1<<40, 2 << 62, 2<<62 + 1<<40, 3 << 62, ^uint64(0)}
	for _, k := range keys {
		if err := c.Insert(ctx, k, valOf(k)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for _, k := range keys {
		v, ok, err := c.Get(ctx, k)
		if err != nil || !ok || v != valOf(k) {
			t.Fatalf("Get(%d) = %d, %v, %v", k, v, ok, err)
		}
	}
	// Cross-shard range: everything, ascending.
	pairs, err := c.RangeAll(ctx, 0, ^uint64(0))
	if err != nil {
		t.Fatalf("RangeAll: %v", err)
	}
	if len(pairs) != len(keys) {
		t.Fatalf("RangeAll returned %d pairs, want %d", len(pairs), len(keys))
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Key <= pairs[i-1].Key {
			t.Fatalf("RangeAll not ascending at %d: %d after %d", i, pairs[i].Key, pairs[i-1].Key)
		}
	}

	stats, _, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Shards != 4 {
		t.Fatalf("stats.Shards = %d, want 4", stats.Shards)
	}
	if len(stats.ShardStates) != 4 {
		t.Fatalf("stats.ShardStates = %v, want 4 entries", stats.ShardStates)
	}
	for i, st := range stats.ShardStates {
		if st != "ok" {
			t.Fatalf("shard %d state = %q, want ok", i, st)
		}
	}
	if stats.Len != len(keys) {
		t.Fatalf("stats.Len = %d, want %d", stats.Len, len(keys))
	}
}
