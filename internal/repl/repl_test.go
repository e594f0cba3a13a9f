package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/wal"
)

func openIx(t *testing.T) *chameleon.DurableIndex {
	t.Helper()
	d, err := chameleon.OpenDir(t.TempDir(), chameleon.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() }) //nolint:errcheck
	return d
}

// newFollowerShell builds a one-shard follower-role Node without starting
// the dial loop, so tests can drive shardSyncLoop with a scripted client.
func newFollowerShell(ix *chameleon.DurableIndex, opts Options) *Node {
	n := &Node{
		ix:      soloIndex{ix},
		opts:    opts.withDefaults(),
		ackCh:   make(chan struct{}),
		snaps:   make(map[uint64]*snapshot),
		role:    chameleon.RoleFollower,
		streams: []*shardStream{{dataCh: make(chan struct{})}},
	}
	n.lastProgress.Store(time.Now().UnixNano())
	return n
}

// fakeClient scripts shard 0's ReplPull/ReplSnap answers for follower-loop
// tests, recording whether each pull asked for the layout.
type fakeClient struct {
	pulls   []func(fromSeq, epoch uint64) (client.PullResult, error)
	snap    func(snapID, offset uint64) (client.SnapChunk, error)
	layouts []bool
	i       int
}

var errScriptDone = errors.New("script exhausted")

func (f *fakeClient) ReplPull(_ context.Context, shard int, fromSeq uint64, _ int, _ time.Duration, epoch uint64, layout bool) (client.PullResult, error) {
	if shard != 0 {
		return client.PullResult{}, fmt.Errorf("one-shard follower pulled shard %d", shard)
	}
	if f.i >= len(f.pulls) {
		return client.PullResult{}, errScriptDone
	}
	f.layouts = append(f.layouts, layout)
	fn := f.pulls[f.i]
	f.i++
	return fn(fromSeq, epoch)
}

func (f *fakeClient) ReplSnap(_ context.Context, shard int, snapID, offset uint64) (client.SnapChunk, error) {
	if shard != 0 {
		return client.SnapChunk{}, fmt.Errorf("one-shard follower bootstrapped shard %d", shard)
	}
	return f.snap(snapID, offset)
}

func TestPrimaryRingAndServePull(t *testing.T) {
	ix := openIx(t)
	n := New(ix, Options{})
	defer n.Close()
	if role, epoch := n.Role(); role != chameleon.RolePrimary || epoch != 1 {
		t.Fatalf("fresh primary: role %v epoch %d", role, epoch)
	}
	if !n.AllowWrites() {
		t.Fatal("primary refuses writes")
	}
	for k := uint64(1); k <= 5; k++ {
		if err := ix.Insert(k, k*10); err != nil {
			t.Fatal(err)
		}
	}

	pr, err := n.ServeShardPull(context.Background(), 0, 1, 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if pr.SnapshotNeeded || pr.FirstSeq != 1 || len(pr.Recs) != 5 || pr.UpstreamSeq != 5 {
		t.Fatalf("pull from 1: %+v", pr)
	}
	if pr.Recs[2].Key != 3 || pr.Recs[2].Val != 30 {
		t.Fatalf("record 3 is %+v", pr.Recs[2])
	}
	// Pulling from 6 acknowledges 1..5 and long-polls empty.
	pr, err = n.ServeShardPull(context.Background(), 0, 6, 0, 10*time.Millisecond, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Recs) != 0 || pr.UpstreamSeq != 5 {
		t.Fatalf("caught-up pull: %+v", pr)
	}
	if h := n.Health(); h.AckedSeq != 5 {
		t.Fatalf("acked seq %d, want 5 (pulls are acks)", h.AckedSeq)
	}
	// max bounds the batch.
	pr, err = n.ServeShardPull(context.Background(), 0, 1, 2, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Recs) != 2 || pr.FirstSeq != 1 {
		t.Fatalf("bounded pull: %+v", pr)
	}
	// A shard this one-shard node does not have gets its layout, no records:
	// that is how a puller holding more shards learns of the mismatch.
	pr, err = n.ServeShardPull(context.Background(), 1, 1, 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.HasLayout || pr.Bounds != nil || len(pr.Recs) != 0 || pr.Epoch != 1 {
		t.Fatalf("pull of a missing shard: %+v", pr)
	}
}

func TestRingTrimForcesSnapshot(t *testing.T) {
	ix := openIx(t)
	n := New(ix, Options{ringCap: 4})
	defer n.Close()
	for k := uint64(1); k <= 10; k++ {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	pr, err := n.ServeShardPull(context.Background(), 0, 1, 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.SnapshotNeeded {
		t.Fatalf("trimmed ring served seq 1: %+v", pr)
	}
	// The retained tail is still pullable.
	pr, err = n.ServeShardPull(context.Background(), 0, 7, 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if pr.SnapshotNeeded || pr.FirstSeq != 7 || len(pr.Recs) != 4 {
		t.Fatalf("tail pull: %+v", pr)
	}
}

// TestReplaceRestartsRing: a BulkLoad on a semi-sync primary is one commit
// that the ring cannot carry. It returns without waiting for an ack, wakes a
// pull parked past the old head, and answers it snapshot-needed with the
// layout attached; the next sequence tails as usual.
func TestReplaceRestartsRing(t *testing.T) {
	ix := openIx(t)
	for k := uint64(1); k <= 10; k++ {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	n := New(ix, Options{SemiSync: true, AckTimeout: time.Minute})
	defer n.Close()

	parked := make(chan PullReply, 1)
	go func() {
		pr, _ := n.ServeShardPull(context.Background(), 0, 11, 0, 10*time.Second, 0, false)
		parked <- pr
	}()
	time.Sleep(20 * time.Millisecond) // let the pull park
	start := time.Now()
	if err := ix.BulkLoad([]uint64{100, 200, 300}, nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("BulkLoad waited %v for a semi-sync ack", d)
	}
	if got := ix.CommitSeq(); got != 11 {
		t.Fatalf("CommitSeq after BulkLoad = %d, want 11", got)
	}
	select {
	case pr := <-parked:
		if !pr.SnapshotNeeded || !pr.HasLayout || pr.UpstreamSeq != 11 || len(pr.Recs) != 0 {
			t.Fatalf("parked pull across the replace: %+v", pr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the replace did not wake the parked pull")
	}
	pr, err := n.ServeShardPull(context.Background(), 0, 12, 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if pr.SnapshotNeeded || pr.HasLayout || pr.UpstreamSeq != 11 {
		t.Fatalf("pull past the replace: %+v", pr)
	}
}

// TestSemiSyncAckAndLagging pins the ambiguous-fate contract: with no
// follower pulling, a semi-sync write errors with ErrReplicaLagging yet IS
// locally durable; with a puller acking, writes succeed.
func TestSemiSyncAckAndLagging(t *testing.T) {
	ix := openIx(t)
	n := New(ix, Options{SemiSync: true, AckTimeout: 50 * time.Millisecond})
	defer n.Close()

	err := ix.Insert(1, 100)
	if !errors.Is(err, chameleon.ErrReplicaLagging) {
		t.Fatalf("unacked semi-sync insert: %v, want ErrReplicaLagging", err)
	}
	if v, ok := ix.Lookup(1); !ok || v != 100 {
		t.Fatal("lagging write is not locally durable — the ambiguous fate must be 'durable, unconfirmed'")
	}

	// A live puller turns writes green again.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			n.ServeShardPull(context.Background(), 0, ix.CommitSeq()+1, 0, 20*time.Millisecond, 0, false) //nolint:errcheck
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := ix.Insert(2, 200); err == nil {
			break
		} else if !errors.Is(err, chameleon.ErrReplicaLagging) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("semi-sync insert never acked despite live puller")
		}
	}
}

func TestCloseReleasesSemiSyncWaiter(t *testing.T) {
	ix := openIx(t)
	n := New(ix, Options{SemiSync: true, AckTimeout: 10 * time.Second})
	done := make(chan error, 1)
	go func() { done <- ix.Insert(7, 7) }()
	time.Sleep(20 * time.Millisecond) // let the insert reach waitAcked
	n.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("insert during close: %v (locally durable writes must not fail on shutdown)", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("semi-sync waiter leaked past Close")
	}
}

func TestPromoteFenceStateMachine(t *testing.T) {
	ix := openIx(t)
	n := New(ix, Options{})
	defer n.Close()

	// A stale epoch does not fence.
	if epoch, role, _ := n.Fence(1); epoch != 1 || role != chameleon.RolePrimary {
		t.Fatalf("stale fence: epoch %d role %v", epoch, role)
	}
	// A newer epoch deposes the primary.
	if epoch, role, _ := n.Fence(3); epoch != 3 || role != chameleon.RoleFenced {
		t.Fatalf("fence: epoch %d role %v", epoch, role)
	}
	if n.AllowWrites() {
		t.Fatal("fenced node accepts writes")
	}
	if _, err := n.Promote(); !errors.Is(err, ErrFencedNode) {
		t.Fatalf("promoting fenced node: %v", err)
	}

	// A follower (shell: no dial loop) promotes: epoch exceeds upstream's.
	f := newFollowerShell(openIx(t), Options{ReplicaOf: "127.0.0.1:1"})
	f.epoch = 3 // adopted from pulls
	defer f.Close()
	if f.AllowWrites() {
		t.Fatal("follower accepts writes")
	}
	epoch, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 4 {
		t.Fatalf("promoted epoch %d, want 4 (> deposed primary's 3)", epoch)
	}
	if role, _ := f.Role(); role != chameleon.RolePrimary || !f.AllowWrites() {
		t.Fatalf("promoted role %v", role)
	}
	// Promote is idempotent.
	if again, err := f.Promote(); err != nil || again != 4 {
		t.Fatalf("re-promote: epoch %d err %v", again, err)
	}
}

func TestServeSnapStreamRestores(t *testing.T) {
	ix := openIx(t)
	n := New(ix, Options{snapChunk: 64})
	defer n.Close()
	for k := uint64(1); k <= 200; k++ {
		if err := ix.Insert(k, k^0xFF); err != nil {
			t.Fatal(err)
		}
	}

	var blob bytes.Buffer
	first, err := n.ServeShardSnap(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.AsOfSeq != 200 || first.Total == 0 {
		t.Fatalf("snapshot opened: %+v", first)
	}
	blob.Write(first.Data)
	for off := uint64(len(first.Data)); off < first.Total; {
		ch, err := n.ServeShardSnap(0, first.SnapID, off)
		if err != nil {
			t.Fatal(err)
		}
		if ch.Offset != off || len(ch.Data) == 0 || len(ch.Data) > 64 {
			t.Fatalf("chunk at %d: offset %d len %d", off, ch.Offset, len(ch.Data))
		}
		blob.Write(ch.Data)
		off += uint64(len(ch.Data))
	}

	follower := openIx(t)
	if err := follower.RestoreSnapshot(&blob, first.AsOfSeq); err != nil {
		t.Fatal(err)
	}
	if follower.CommitSeq() != 200 || follower.Len() != 200 {
		t.Fatalf("restored: seq %d len %d", follower.CommitSeq(), follower.Len())
	}
	if v, ok := follower.Lookup(123); !ok || v != 123^0xFF {
		t.Fatalf("restored lookup: %d %v", v, ok)
	}

	if _, err := n.ServeShardSnap(0, 9999, 0); !errors.Is(err, ErrUnknownSnapshot) {
		t.Fatalf("unknown snap id: %v", err)
	}
}

// TestPullLoopAppliesIdempotently drives the follower loop with a scripted
// upstream: a batch, the same batch re-delivered, then script end. The
// re-delivery must be a no-op (SeqTracker dedupe), not an error or a
// double-apply. The first pull on the connection asks for the layout; later
// pulls do not.
func TestPullLoopAppliesIdempotently(t *testing.T) {
	ix := openIx(t)
	n := newFollowerShell(ix, Options{ReplicaOf: "scripted"})
	batch := func(fromSeq, _ uint64) (client.PullResult, error) {
		return client.PullResult{FirstSeq: 1, UpstreamSeq: 2, Epoch: 1,
			Recs: []wal.Record{{Op: wal.OpInsert, Key: 10, Val: 1}, {Op: wal.OpInsert, Key: 20, Val: 2}}}, nil
	}
	fc := &fakeClient{pulls: []func(uint64, uint64) (client.PullResult, error){batch, batch}}
	err := n.shardSyncLoop(context.Background(), fc)
	if !errors.Is(err, errScriptDone) {
		t.Fatalf("pull loop ended with %v", err)
	}
	if ix.CommitSeq() != 2 || ix.Len() != 2 {
		t.Fatalf("after redelivery: seq %d len %d", ix.CommitSeq(), ix.Len())
	}
	if _, epoch := n.Role(); epoch != 1 {
		t.Fatalf("adopted epoch %d, want 1", epoch)
	}
	if h := n.Health(); h.UpstreamSeq != 2 || h.Lag != 0 || len(h.ShardLags) != 1 || h.ShardLags[0] != 0 {
		t.Fatalf("one-shard follower health: %+v", h)
	}
	if len(fc.layouts) != 2 || !fc.layouts[0] || fc.layouts[1] {
		t.Fatalf("pulls asked for the layout %v: only the first must", fc.layouts)
	}
}

// TestPullLoopFailsStopOnRegression: an upstream whose epoch or commit clock
// moves backwards, or whose shard count differs from the follower's, is
// divergence-class — the loop must return errFatal, and failStop must mark
// health Diverged.
func TestPullLoopFailsStopOnRegression(t *testing.T) {
	cases := []struct {
		name  string
		pulls []func(uint64, uint64) (client.PullResult, error)
	}{
		{"epoch regression", []func(uint64, uint64) (client.PullResult, error){
			func(uint64, uint64) (client.PullResult, error) {
				return client.PullResult{UpstreamSeq: 0, Epoch: 5}, nil
			},
			func(uint64, uint64) (client.PullResult, error) {
				return client.PullResult{UpstreamSeq: 0, Epoch: 4}, nil
			},
		}},
		{"upstream seq regression", []func(uint64, uint64) (client.PullResult, error){
			func(uint64, uint64) (client.PullResult, error) {
				return client.PullResult{UpstreamSeq: 9, Epoch: 1}, nil
			},
			func(uint64, uint64) (client.PullResult, error) {
				return client.PullResult{UpstreamSeq: 3, Epoch: 1}, nil
			},
		}},
		{"sequence gap", []func(uint64, uint64) (client.PullResult, error){
			func(uint64, uint64) (client.PullResult, error) {
				return client.PullResult{FirstSeq: 5, UpstreamSeq: 6, Epoch: 1,
					Recs: []wal.Record{{Op: wal.OpInsert, Key: 1, Val: 1}}}, nil
			},
		}},
		{"shard count mismatch", []func(uint64, uint64) (client.PullResult, error){
			func(uint64, uint64) (client.PullResult, error) {
				return client.PullResult{FirstSeq: 1, UpstreamSeq: 1, Epoch: 1,
					HasLayout: true, Bounds: []uint64{1 << 63},
					Recs: []wal.Record{{Op: wal.OpInsert, Key: 1, Val: 1}}}, nil
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := openIx(t)
			n := newFollowerShell(ix, Options{ReplicaOf: "scripted"})
			err := n.shardSyncLoop(context.Background(), &fakeClient{pulls: tc.pulls})
			var fe *errFatal
			if !errors.As(err, &fe) {
				t.Fatalf("want errFatal, got %v", err)
			}
			if ix.Len() != 0 {
				t.Fatalf("fail-stopped follower applied %d records", ix.Len())
			}
			n.failStop(err)
			if h := n.Health(); !h.Diverged || h.State() != chameleon.HealthPoisoned {
				t.Fatalf("post-failstop health: %+v", h)
			}
		})
	}
}

// TestPullLoopBootstraps: a snapshot-needed pull drives a full chunked
// bootstrap through RestoreSnapshot, after which pulling resumes from the
// snapshot's sequence — for each engine, and from a primary of either
// engine to a follower of the other: the stream is the same.
func TestPullLoopBootstraps(t *testing.T) {
	legacy, tiered := chameleon.DirOptions{}, chameleon.DirOptions{Tiered: true}
	for _, tc := range []struct {
		name              string
		primary, follower chameleon.DirOptions
	}{
		{"legacy", legacy, legacy},
		{"tiered", tiered, tiered},
		{"legacy-to-tiered", legacy, tiered},
		{"tiered-to-legacy", tiered, legacy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			open := func(opts chameleon.DirOptions) *chameleon.DurableIndex {
				d, err := chameleon.OpenDir(t.TempDir(), opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { d.Close() }) //nolint:errcheck
				return d
			}
			primary := open(tc.primary)
			pn := New(primary, Options{snapChunk: 128})
			defer pn.Close()
			for k := uint64(1); k <= 100; k++ {
				if err := primary.Insert(k, k+1000); err != nil {
					t.Fatal(err)
				}
			}

			ix := open(tc.follower)
			n := newFollowerShell(ix, Options{ReplicaOf: "scripted"})
			var resumedFrom uint64
			fc := &fakeClient{
				pulls: []func(uint64, uint64) (client.PullResult, error){
					func(uint64, uint64) (client.PullResult, error) {
						return client.PullResult{UpstreamSeq: 100, Epoch: 1, SnapshotNeeded: true}, nil
					},
					func(fromSeq, _ uint64) (client.PullResult, error) {
						resumedFrom = fromSeq
						return client.PullResult{FirstSeq: 101, UpstreamSeq: 101, Epoch: 1,
							Recs: []wal.Record{{Op: wal.OpInsert, Key: 500, Val: 501}}}, nil
					},
				},
				snap: serveSnap(pn),
			}
			err := n.shardSyncLoop(context.Background(), fc)
			if !errors.Is(err, errScriptDone) {
				t.Fatal(err)
			}
			if resumedFrom != 101 {
				t.Fatalf("post-bootstrap pull resumed from %d, want 101", resumedFrom)
			}
			if ix.CommitSeq() != 101 || ix.Len() != 101 {
				t.Fatalf("bootstrapped follower: seq %d len %d", ix.CommitSeq(), ix.Len())
			}
			if v, ok := ix.Lookup(42); !ok || v != 1042 {
				t.Fatalf("bootstrapped lookup: %d %v", v, ok)
			}
			if n.bootstraps.Load() != 1 {
				t.Fatalf("bootstraps %d, want 1", n.bootstraps.Load())
			}
			if h := n.Health(); h.Diverged {
				t.Fatalf("unexpected divergence: %+v", h)
			}
		})
	}
}

// serveSnap answers a follower's ReplSnap from pn's shard 0.
func serveSnap(pn *Node) func(snapID, offset uint64) (client.SnapChunk, error) {
	return func(snapID, offset uint64) (client.SnapChunk, error) {
		sr, err := pn.ServeShardSnap(0, snapID, offset)
		if err != nil {
			return client.SnapChunk{}, err
		}
		return client.SnapChunk{SnapID: sr.SnapID, AsOfSeq: sr.AsOfSeq,
			Offset: sr.Offset, Total: sr.Total, Data: sr.Data}, nil
	}
}

// hookedIx wraps a replIndex with an observable, failable SaveReplState, so
// tests can interleave with (or break) the repl.meta persistence step.
type hookedIx struct {
	replIndex
	onSave   func(epoch uint64, fenced bool)
	failSave atomic.Bool
}

func (h *hookedIx) SaveReplState(epoch uint64, fenced bool) error {
	if h.failSave.Load() {
		return errors.New("injected repl.meta write failure")
	}
	if h.onSave != nil {
		h.onSave(epoch, fenced)
	}
	return h.replIndex.SaveReplState(epoch, fenced)
}

// newShellWith is newFollowerShell over an arbitrary replIndex.
func newShellWith(ix replIndex, opts Options) *Node {
	n := &Node{
		ix:      ix,
		opts:    opts.withDefaults(),
		ackCh:   make(chan struct{}),
		snaps:   make(map[uint64]*snapshot),
		role:    chameleon.RoleFollower,
		streams: []*shardStream{{dataCh: make(chan struct{})}},
	}
	n.lastProgress.Store(time.Now().UnixNano())
	return n
}

// TestPromoteReclaimsAfterConcurrentFence: a Fence (or pull adoption) that
// advances the node's epoch in the window between Promote's persist and its
// final role flip must force a re-claim — the node must never become primary
// at an epoch another primary already reached. The hook fires inside the
// first claim's SaveReplState, simulating the rival landing mid-window.
func TestPromoteReclaimsAfterConcurrentFence(t *testing.T) {
	hx := &hookedIx{replIndex: soloIndex{openIx(t)}}
	n := newShellWith(hx, Options{ReplicaOf: "scripted"})
	n.epoch = 1 // as if adopted from the deposed primary
	defer n.Close()

	fired := false
	hx.onSave = func(epoch uint64, fenced bool) {
		if fired || fenced {
			return
		}
		fired = true
		if epoch != 2 {
			t.Errorf("first claim persisted epoch %d, want 2", epoch)
		}
		// A rival's fence applies in memory first (maybeFence order); land it
		// while the claim of 2 is mid-persist.
		n.mu.Lock()
		n.epoch = 5
		n.mu.Unlock()
	}

	epoch, err := n.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 6 {
		t.Fatalf("promoted at epoch %d, want 6 (re-claimed past the rival's 5)", epoch)
	}
	if role, e := n.Role(); role != chameleon.RolePrimary || e != 6 {
		t.Fatalf("post-promote role %v epoch %d", role, e)
	}
	if pe, pf := hx.LoadReplState(); pe != 6 || pf {
		t.Fatalf("persisted state (%d, %v), want (6, false)", pe, pf)
	}
}

// TestPromotePersistFailureStaysFollower: when the claimed epoch cannot be
// durably recorded, Promote must fail and the node must resume as a plain
// follower (pull loop running, writes refused) — not ack writes at an epoch
// a restart would forget.
func TestPromotePersistFailureStaysFollower(t *testing.T) {
	hx := &hookedIx{replIndex: soloIndex{openIx(t)}}
	n := newShellWith(hx, Options{
		ReplicaOf:    "127.0.0.1:1", // unreachable; the resumed loop just backs off
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
	})
	n.epoch = 1
	defer n.Close()
	hx.failSave.Store(true)

	if _, err := n.Promote(); err == nil {
		t.Fatal("Promote succeeded despite a failing repl.meta write")
	}
	if role, _ := n.Role(); role != chameleon.RoleFollower {
		t.Fatalf("post-failure role %v, want follower", role)
	}
	if n.AllowWrites() {
		t.Fatal("node accepts writes after a failed promotion")
	}
	n.mu.Lock()
	resumed := n.cancel != nil
	n.mu.Unlock()
	if !resumed {
		t.Fatal("pull loop not resumed after the failed promotion")
	}

	// The failure is transient: once the sidecar writes again, promotion
	// goes through at a durably recorded epoch.
	hx.failSave.Store(false)
	epoch, err := n.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("recovered promotion epoch %d, want 2", epoch)
	}
	if pe, pf := hx.LoadReplState(); pe != 2 || pf {
		t.Fatalf("persisted state (%d, %v), want (2, false)", pe, pf)
	}
}

// TestFencePersistFailureSurfacesButFences: a fence whose repl.meta write
// fails must still refuse writes (the safe direction) while telling the
// fencing caller durability was not achieved.
func TestFencePersistFailureSurfacesButFences(t *testing.T) {
	hx := &hookedIx{replIndex: soloIndex{openIx(t)}}
	hx.failSave.Store(true)
	n := newNode(hx, Options{})
	defer n.Close()

	epoch, role, err := n.Fence(3)
	if err == nil {
		t.Fatal("Fence reported success despite a failing repl.meta write")
	}
	if epoch != 3 || role != chameleon.RoleFenced {
		t.Fatalf("fence outcome epoch %d role %v, want 3/fenced", epoch, role)
	}
	if n.AllowWrites() {
		t.Fatal("fenced-in-memory node accepts writes")
	}
	// Once the sidecar writes again, the next fencing transition lands
	// durably (the mirror never advanced past the failure).
	hx.failSave.Store(false)
	if _, _, err := n.Fence(4); err != nil {
		t.Fatal(err)
	}
	if pe, pf := hx.LoadReplState(); pe != 4 || !pf {
		t.Fatalf("persisted state (%d, %v), want (4, true)", pe, pf)
	}
}

// TestPromoteWithRankUniqueClaims: PromoteWith's claim function governs the
// chosen epoch, including across a forced re-claim.
func TestPromoteWithRankUniqueClaims(t *testing.T) {
	hx := &hookedIx{replIndex: soloIndex{openIx(t)}}
	n := newShellWith(hx, Options{ReplicaOf: "scripted"})
	n.epoch = 1
	defer n.Close()

	// Rank 1 of group 3: epochs ≡ 1 (mod 3).
	claim := func(cur uint64) uint64 {
		e := cur + 1
		for e%3 != 1 {
			e++
		}
		return e
	}
	epoch, err := n.PromoteWith(claim)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 4 { // cur 1 → smallest e>1 with e≡1 (mod 3)
		t.Fatalf("rank claim promoted at %d, want 4", epoch)
	}
}

// blockingRestoreIx is a replIndex whose RestoreShardSnapshot blocks until
// released: the context-less index call a promotion can find the pull loop
// inside.
type blockingRestoreIx struct {
	replIndex
	entered, release chan struct{}
}

func (b *blockingRestoreIx) RestoreShardSnapshot(i int, r io.Reader, asOfSeq uint64) error {
	close(b.entered)
	<-b.release
	return b.replIndex.RestoreShardSnapshot(i, r, asOfSeq)
}

// TestPromoteBoundsPullLoopWait: a promotion that finds the pull loop stuck
// in a snapshot restore gives up after promoteDrainWait with an error naming
// the stage and the bound, leaving the node a follower with nothing
// persisted; once the restore returns, a retried Promote goes through.
func TestPromoteBoundsPullLoopWait(t *testing.T) {
	primary := openIx(t)
	pn := New(primary, Options{})
	defer pn.Close()
	for k := uint64(1); k <= 10; k++ {
		if err := primary.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	bx := &blockingRestoreIx{replIndex: soloIndex{openIx(t)}, entered: make(chan struct{}), release: make(chan struct{})}
	var saves atomic.Int32
	hx := &hookedIx{replIndex: bx, onSave: func(uint64, bool) { saves.Add(1) }}
	n := newShellWith(hx, Options{ReplicaOf: "scripted"})
	n.epoch = 1
	defer n.Close()
	fc := &fakeClient{
		pulls: []func(uint64, uint64) (client.PullResult, error){
			func(uint64, uint64) (client.PullResult, error) {
				return client.PullResult{UpstreamSeq: 10, Epoch: 1, SnapshotNeeded: true}, nil
			},
		},
		snap: serveSnap(pn),
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	n.cancel, n.done = cancel, done
	go func() {
		defer close(done)
		n.shardSyncLoop(ctx, fc) //nolint:errcheck
	}()
	<-bx.entered

	start := time.Now()
	_, err := n.Promote()
	if took := time.Since(start); took > promoteDrainWait+2*time.Second {
		t.Fatalf("Promote returned after %v, bound %v", took, promoteDrainWait)
	}
	if err == nil || !strings.Contains(err.Error(), "pull loop") || !strings.Contains(err.Error(), promoteDrainWait.String()) {
		t.Fatalf("Promote against a stuck pull loop: %v, want an error naming the pull loop and %v", err, promoteDrainWait)
	}
	if role, _ := n.Role(); role != chameleon.RoleFollower || saves.Load() != 0 {
		t.Fatalf("after the bounded wait: role %v, %d repl.meta writes; want follower, none", role, saves.Load())
	}
	n.mu.Lock()
	handedBack := n.done == done
	n.mu.Unlock()
	if !handedBack {
		t.Fatal("the stuck pull loop was not handed back for Close and a retried Promote")
	}

	close(bx.release)
	epoch, err := n.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if role, e := n.Role(); role != chameleon.RolePrimary || e != epoch || epoch != 2 {
		t.Fatalf("retried Promote: role %v epoch %d (returned %d), want primary at 2", role, e, epoch)
	}
}
