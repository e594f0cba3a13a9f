package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/failover"
	"chameleon/internal/netfault"
	"chameleon/internal/repl"
	"chameleon/internal/server"
	"chameleon/internal/wire"
)

// End-to-end replication tests: HELLO negotiation at the socket level, the
// primary/follower pair over real servers, snapshot bootstrap, read-your-
// writes tokens, replaces crossing the stream, and the fault-injected
// failover soak whose oracle is the acceptance criterion for DESIGN.md §12.
// The pair tests run one row per layout: replication is one stream shape for
// every node, and the rows hold it to one oracle.

// layout names one replicated configuration.
type layout struct {
	name   string
	shards int  // 1 opens a plain DurableIndex, as chameleon-serve does without -shards
	tiered bool // a small memtable, so the rows flush and compact
}

var replLayouts = []layout{
	{name: "legacy", shards: 1},
	{name: "tiered", shards: 1, tiered: true},
	{name: "sharded", shards: 4},
}

// replIx is what the pair tests drive on either handle.
type replIx interface {
	server.Index
	BulkLoad(keys, vals []uint64) error
}

// boundsOf reports ix's shard boundaries (nil for an unsharded handle).
func boundsOf(ix replIx) []uint64 {
	if s, ok := ix.(*chameleon.ShardedIndex); ok {
		return s.Bounds()
	}
	return nil
}

// openLayout opens (or reopens) the index at dir in layout l and, unless
// opts is nil, wires a replication node to it.
func openLayout(t *testing.T, dir string, l layout, opts *repl.Options) (replIx, *repl.Node) {
	t.Helper()
	dopts := chameleon.DirOptions{}
	if l.tiered {
		dopts.Tiered, dopts.MemtableBytes = true, 64<<10
	}
	if l.shards == 1 {
		ix := openIx(t, dir, dopts)
		if opts == nil {
			return ix, nil
		}
		return ix, repl.New(ix, *opts)
	}
	ix, err := chameleon.OpenShardedDir(dir, chameleon.ShardDirOptions{DirOptions: dopts, Shards: l.shards})
	if err != nil {
		t.Fatal(err)
	}
	if opts == nil {
		return ix, nil
	}
	return ix, repl.NewSharded(ix, *opts)
}

// replPair is a primary server and a follower server replicating from it
// through a netfault proxy, with a client dialed to each.
type replPair struct {
	l                         layout
	pdir                      string
	popts                     repl.Options
	primaryIx, followerIx     replIx
	primaryNode, followerNode *repl.Node
	primary, follower         *server.Server
	proxy                     *netfault.Proxy
	pc, fc                    *client.Client
}

// startReplPair wires primary ← proxy ← follower in layout l and dials both
// servers. fopts defaults sensibly for tests (fast pulls, fast reconnects).
func startReplPair(t *testing.T, l layout, popts, fopts repl.Options) *replPair {
	t.Helper()
	rp := &replPair{l: l, pdir: t.TempDir(), popts: popts}
	rp.primaryIx, rp.primaryNode = openLayout(t, rp.pdir, l, &popts)
	rp.primary = startServer(t, rp.primaryIx, server.Options{Repl: rp.primaryNode})

	proxy, err := netfault.New(rp.primary.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rp.proxy = proxy

	fopts.ReplicaOf = proxy.Addr()
	if fopts.PullWait == 0 {
		fopts.PullWait = 100 * time.Millisecond
	}
	if fopts.ReconnectMin == 0 {
		fopts.ReconnectMin = 10 * time.Millisecond
	}
	if fopts.ReconnectMax == 0 {
		fopts.ReconnectMax = 100 * time.Millisecond
	}
	rp.followerIx, rp.followerNode = openLayout(t, t.TempDir(), l, &fopts)
	rp.follower = startServer(t, rp.followerIx, server.Options{Repl: rp.followerNode})

	rp.pc = dialClient(t, rp.primary, client.Options{})
	rp.fc = dialClient(t, rp.follower, client.Options{})

	t.Cleanup(func() {
		rp.pc.Close() //nolint:errcheck
		rp.fc.Close() //nolint:errcheck
		rp.followerNode.Close()
		rp.primaryNode.Close()
		rp.follower.Close() //nolint:errcheck
		rp.primary.Close()  //nolint:errcheck
		proxy.Close()
		rp.followerIx.Close() //nolint:errcheck
		rp.primaryIx.Close()  //nolint:errcheck
	})
	return rp
}

// restartPrimary stops the primary, runs offline against its directory with
// no replication node attached, and brings it back on the same address.
func (rp *replPair) restartPrimary(t *testing.T, offline func(ix replIx) error) {
	t.Helper()
	addr := rp.primary.Addr().String()
	rp.pc.Close()      //nolint:errcheck
	rp.primary.Close() //nolint:errcheck
	rp.primaryNode.Close()
	if err := rp.primaryIx.Close(); err != nil {
		t.Fatal(err)
	}
	ix, _ := openLayout(t, rp.pdir, rp.l, nil)
	if err := offline(ix); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	rp.primaryIx, rp.primaryNode = openLayout(t, rp.pdir, rp.l, &rp.popts)
	rp.primary = server.New(rp.primaryIx, server.Options{Repl: rp.primaryNode})
	if err := rp.primary.Listen(addr); err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	go rp.primary.Serve() //nolint:errcheck
	rp.pc = dialClient(t, rp.primary, client.Options{})
}

// waitConverged polls until the follower holds the primary's commit clock,
// size and bounds. Every follower shard is at or behind its primary shard,
// so equal clock sums mean every shard caught up.
func waitConverged(t *testing.T, rp *replPair, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if rp.followerIx.CommitSeq() == rp.primaryIx.CommitSeq() &&
			rp.followerIx.Len() == rp.primaryIx.Len() &&
			slices.Equal(boundsOf(rp.followerIx), boundsOf(rp.primaryIx)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: seq %d/%d len %d/%d bounds %v/%v health %+v",
				rp.followerIx.CommitSeq(), rp.primaryIx.CommitSeq(),
				rp.followerIx.Len(), rp.primaryIx.Len(),
				boundsOf(rp.followerIx), boundsOf(rp.primaryIx), rp.followerNode.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// spread maps j to a key with an odd multiplier — bijective and uniform
// over the key space, so every shard sees traffic.
func spread(j uint64) uint64 { return j * 0x9E3779B97F4A7C15 }

// waitFollowerSeq polls the follower index until its commit clock reaches
// seq or the deadline passes.
func waitFollowerSeq(t *testing.T, ix *chameleon.DurableIndex, seq uint64, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for ix.CommitSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d", ix.CommitSeq(), seq)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHelloVersionMismatch drives the raw socket: a HELLO with another
// protocol version must get the typed rejection and then a hangup — fail
// fast, never decode garbage mid-stream. One row is an alien version in this
// version's shape; two are a v5 and a v4 peer's HELLO (same shape; a v5
// peer would otherwise take a snapshot stream it cannot restore); one is a
// v3 peer's HELLO byte for byte (version 3, then 8 bytes of feature bits).
func TestHelloVersionMismatch(t *testing.T) {
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	defer ix.Close() //nolint:errcheck
	s := startServer(t, ix, server.Options{})
	defer s.Close() //nolint:errcheck

	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"v99", wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpHello, Version: 99})},
		{"v5", wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpHello, Version: 5})},
		{"v4", wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpHello, Version: 4})},
		// [1] op [8] id, then v3's body: [2] version [8] feature bits.
		{"v3 shape", wireTestFrame([]byte{byte(wire.OpHello), 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 3, 0, 0, 0, 0, 0, 0, 0})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close() //nolint:errcheck
			if _, err := nc.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			payload, err := wire.ReadFrame(nc, nil)
			if err != nil {
				t.Fatalf("reading mismatch reply: %v", err)
			}
			res, err := wire.DecodeResponse(payload)
			if err != nil {
				t.Fatal(err)
			}
			if res.OK || res.Err != wire.ErrCodeVersionMismatch || res.ID != 1 {
				t.Fatalf("HELLO %s answered %+v, want ErrCodeVersionMismatch for id 1", tc.name, res)
			}
			// The server hangs up after the rejection.
			if _, err := wire.ReadFrame(nc, nil); err == nil {
				t.Fatal("server kept the mismatched connection open")
			}
		})
	}
}

// TestReplOpsRequireNegotiation: the REPL_* family is served iff the server
// runs replication. A server without it refuses with a typed malformed
// rejection, not a hang or an internal error; a replicating server serves a
// client that went through HELLO. (A connection that skips HELLO is refused
// before any op runs: TestHelloRequired.)
func TestReplOpsRequireNegotiation(t *testing.T) {
	ctx := context.Background()

	// No replication configured: typed refusal.
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	defer ix.Close() //nolint:errcheck
	s := startServer(t, ix, server.Options{})
	defer s.Close() //nolint:errcheck
	c := dialClient(t, s, client.Options{})
	defer c.Close() //nolint:errcheck
	_, err := c.ReplPull(ctx, 0, 1, 10, 0, 0, false)
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.ErrCodeMalformed {
		t.Fatalf("REPL_PULL without replication: %v, want ErrCodeMalformed", err)
	}

	// Replication configured: the same call is served.
	node := repl.New(ix, repl.Options{})
	defer node.Close()
	s2 := startServer(t, ix, server.Options{Repl: node})
	defer s2.Close() //nolint:errcheck
	good := dialClient(t, s2, client.Options{})
	defer good.Close() //nolint:errcheck
	if _, err := good.ReplPull(ctx, 0, 1, 10, 0, 0, false); err != nil {
		t.Fatalf("negotiated REPL_PULL: %v", err)
	}
}

// TestHelloRequired: HELLO is mandatory. A raw connection whose first
// request is anything else — a GET, an INSERT, or a REPL_PULL on a
// replicating server — gets the typed version-mismatch refusal under its own
// request id, nothing runs, and the server hangs up. After a HELLO, every
// successful INSERT and DELETE reply carries the commit-sequence token its
// write landed at.
func TestHelloRequired(t *testing.T) {
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	defer ix.Close() //nolint:errcheck
	node := repl.New(ix, repl.Options{})
	defer node.Close()
	s := startServer(t, ix, server.Options{Repl: node})
	defer s.Close() //nolint:errcheck

	for _, first := range []*wire.Request{
		{ID: 1, Op: wire.OpGet, Key: 5},
		{ID: 2, Op: wire.OpInsert, Key: 5, Val: 6},
		{ID: 3, Op: wire.OpReplPull, Seq: 1, Limit: 10},
	} {
		t.Run(first.Op.String(), func(t *testing.T) {
			nc, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()                                //nolint:errcheck
			nc.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			res := rawRoundTrip(t, nc, first)
			if res.OK || res.Err != wire.ErrCodeVersionMismatch || res.ID != first.ID {
				t.Fatalf("%s before HELLO answered %+v, want ErrCodeVersionMismatch for id %d", first.Op, res, first.ID)
			}
			if _, err := wire.ReadFrame(nc, nil); err == nil {
				t.Fatal("server kept the HELLO-less connection open")
			}
		})
	}
	if n := ix.Len(); n != 0 {
		t.Fatalf("a refused request ran: Len = %d, want 0", n)
	}

	nc := dialHello(t, s)
	nc.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for _, req := range []*wire.Request{
		{ID: 1, Op: wire.OpInsert, Key: 5, Val: 6},
		{ID: 2, Op: wire.OpInsert, Key: 7, Val: 8},
		{ID: 3, Op: wire.OpDelete, Key: 5},
	} {
		res := rawRoundTrip(t, nc, req)
		if !res.OK || !res.HasSeq || res.Seq != ix.CommitSeq() {
			t.Fatalf("%s after HELLO answered %+v, want OK with token %d", req.Op, res, ix.CommitSeq())
		}
	}
	if got := ix.CommitSeq(); got != 3 {
		t.Fatalf("CommitSeq = %d after 3 writes", got)
	}
}

// TestReplicationConverges: the bread-and-butter pair, on every layout.
// Writes spread over the key space land on the primary, the follower
// converges, write replies carry commit-sequence tokens, and GetAtLeast on
// the follower blocks until the token's write is visible — read-your-writes
// across the replication gap. STATS reports one lag entry per shard on both
// roles, and writes to the follower bounce with ErrNotPrimary.
func TestReplicationConverges(t *testing.T) {
	for _, l := range replLayouts {
		t.Run(l.name, func(t *testing.T) {
			rp := startReplPair(t, l, repl.Options{}, repl.Options{})
			ctx := context.Background()

			const n = 400
			for j := uint64(1); j <= n; j++ {
				if err := rp.pc.Insert(ctx, spread(j), valOf(spread(j))); err != nil {
					t.Fatalf("Insert(%d): %v", spread(j), err)
				}
			}
			if got := rp.pc.LastSeq(); got != n {
				t.Fatalf("client seq token = %d, want %d", got, n)
			}

			// Read-your-writes: ask the follower for the last write at its
			// token. Nothing is written after it, so the token is the whole
			// clock on every layout.
			v, found, err := rp.fc.GetAtLeast(ctx, spread(n), rp.pc.LastSeq(), 5*time.Second)
			if err != nil || !found || v != valOf(spread(n)) {
				t.Fatalf("GetAtLeast(%d, seq %d) = %d,%v,%v", spread(n), rp.pc.LastSeq(), v, found, err)
			}
			waitConverged(t, rp, 15*time.Second)
			for j := uint64(1); j <= n; j++ {
				if v, ok := rp.followerIx.Lookup(spread(j)); !ok || v != valOf(spread(j)) {
					t.Fatalf("follower Lookup(%d) = %d,%v", spread(j), v, ok)
				}
			}

			// Fail-fast WaitSeq: a token far beyond the stream with no wait
			// budget.
			if _, err := rp.fc.WaitSeq(ctx, n+1000, 0); !errors.Is(err, chameleon.ErrReplicaLagging) {
				t.Fatalf("WaitSeq(fail-fast) = %v, want ErrReplicaLagging", err)
			}

			// The follower is read-only.
			if err := rp.fc.Insert(ctx, 7777, 1); !errors.Is(err, chameleon.ErrNotPrimary) {
				t.Fatalf("Insert on follower: %v, want ErrNotPrimary", err)
			}

			// Stats surfaces the replication fields on both sides.
			ps, _, err := rp.pc.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if ps.ReplRole != "primary" || ps.ReplEpoch != 1 || ps.CommitSeq != n || len(ps.ReplShardLagSeqs) != l.shards {
				t.Fatalf("primary stats = role %q epoch %d seq %d shard lags %v",
					ps.ReplRole, ps.ReplEpoch, ps.CommitSeq, ps.ReplShardLagSeqs)
			}
			fs, _, err := rp.fc.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if fs.ReplRole != "follower" || !fs.ReplConnected || fs.ReplLastApplied != n || len(fs.ReplShardLagSeqs) != l.shards {
				t.Fatalf("follower stats = %+v", fs)
			}
			for i, lag := range fs.ReplShardLagSeqs {
				if lag != 0 {
					t.Fatalf("converged follower reports lag %d on shard %d", lag, i)
				}
			}
		})
	}
}

// TestSnapshotBootstrapConvergence: a follower whose primary's history lies
// outside the pull ring cannot catch up record-by-record; it must bootstrap
// from a streamed snapshot over the wire and then tail the ring. The ring
// starts at the commit sequence the node is created at, so every write made
// before repl.New is out of its reach.
func TestSnapshotBootstrapConvergence(t *testing.T) {
	ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	defer ix.Close() //nolint:errcheck
	const n = 500
	for k := uint64(1); k <= n; k++ {
		if err := ix.Insert(k, valOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	node := repl.New(ix, repl.Options{})
	defer node.Close()
	s := startServer(t, ix, server.Options{Repl: node})
	defer s.Close() //nolint:errcheck

	pc := dialClient(t, s, client.Options{})
	defer pc.Close() //nolint:errcheck
	ctx := context.Background()

	fix := openIx(t, t.TempDir(), chameleon.DirOptions{})
	defer fix.Close() //nolint:errcheck
	fnode := repl.New(fix, repl.Options{
		ReplicaOf:    s.Addr().String(),
		PullWait:     100 * time.Millisecond,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	})
	defer fnode.Close()

	waitFollowerSeq(t, fix, n, 15*time.Second)
	if h := fnode.Health(); h.SnapshotBootstraps == 0 {
		t.Fatalf("follower caught up without a snapshot bootstrap: %+v", h)
	}
	if fix.Len() != n {
		t.Fatalf("follower Len = %d, want %d", fix.Len(), n)
	}
	for _, k := range []uint64{1, 250, n} {
		if v, ok := fix.Lookup(k); !ok || v != valOf(k) {
			t.Fatalf("follower Lookup(%d) = %d,%v", k, v, ok)
		}
	}

	// The stream stays live after bootstrap: one more write tails through.
	if err := pc.Insert(ctx, n+1, valOf(n+1)); err != nil {
		t.Fatal(err)
	}
	waitFollowerSeq(t, fix, n+1, 10*time.Second)
}

// TestCrossEngineBootstrap: a node of one engine follows a primary of the
// other — the way to move a deployment between layouts: follow, then
// promote. The primary's early history is outside its pull ring, so the
// follower bootstraps over REPL_SNAP, then catches up by pulls (inserts,
// overwrites by delete and re-insert, deletes) without a second bootstrap.
// Promoted, it serves every acknowledged key with its value and takes
// writes.
func TestCrossEngineBootstrap(t *testing.T) {
	legacy := chameleon.DirOptions{}
	tiered := chameleon.DirOptions{Tiered: true, MemtableBytes: 64 << 10}
	for _, tc := range []struct {
		name              string
		primary, follower chameleon.DirOptions
	}{
		{"legacy-to-tiered", legacy, tiered},
		{"tiered-to-legacy", tiered, legacy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			const early, late = 3000, 600
			want := make(map[uint64]uint64)
			ix := openIx(t, t.TempDir(), tc.primary)
			defer ix.Close() //nolint:errcheck
			for j := uint64(1); j <= early; j++ {
				if err := ix.Insert(spread(j), valOf(j)); err != nil {
					t.Fatal(err)
				}
				want[spread(j)] = valOf(j)
			}
			node := repl.New(ix, repl.Options{})
			defer node.Close()
			s := startServer(t, ix, server.Options{Repl: node})
			defer s.Close() //nolint:errcheck
			pc := dialClient(t, s, client.Options{})
			defer pc.Close() //nolint:errcheck

			fix := openIx(t, t.TempDir(), tc.follower)
			defer fix.Close() //nolint:errcheck
			fnode := repl.New(fix, repl.Options{
				ReplicaOf:    s.Addr().String(),
				PullWait:     50 * time.Millisecond,
				ReconnectMin: 10 * time.Millisecond,
				ReconnectMax: 100 * time.Millisecond,
			})
			defer fnode.Close()
			fs := startServer(t, fix, server.Options{Repl: fnode})
			defer fs.Close() //nolint:errcheck
			fc := dialClient(t, fs, client.Options{})
			defer fc.Close() //nolint:errcheck

			waitFollowerSeq(t, fix, early, 15*time.Second)
			if h := fnode.Health(); h.SnapshotBootstraps != 1 || h.Diverged {
				t.Fatalf("follower reached seq %d without exactly one bootstrap: %+v", early, h)
			}
			for j := uint64(1); j <= late; j++ {
				k := spread(early + j)
				if err := pc.Insert(ctx, k, valOf(k)); err != nil {
					t.Fatal(err)
				}
				want[k] = valOf(k)
				if j%3 == 0 { // delete an early key; re-insert every other one with a new value
					old := spread(j)
					if err := pc.Delete(ctx, old); err != nil {
						t.Fatal(err)
					}
					delete(want, old)
					if j%2 == 0 {
						if err := pc.Insert(ctx, old, j); err != nil {
							t.Fatal(err)
						}
						want[old] = j
					}
				}
			}
			waitFollowerSeq(t, fix, ix.CommitSeq(), 15*time.Second)
			if h := fnode.Health(); h.SnapshotBootstraps != 1 || h.Diverged {
				t.Fatalf("follower did not catch up by pulls alone: %+v", h)
			}

			if _, _, err := fc.Promote(ctx); err != nil {
				t.Fatal(err)
			}
			if fix.Len() != len(want) {
				t.Fatalf("promoted node holds %d keys, want %d", fix.Len(), len(want))
			}
			for k, v := range want {
				if got, ok, err := fc.Get(ctx, k); err != nil || !ok || got != v {
					t.Fatalf("promoted Get(%d) = %d,%v,%v; want %d,true", k, got, ok, err, v)
				}
			}
			if err := fc.Insert(ctx, 42, valOf(42)); err != nil {
				t.Fatalf("promoted node refuses a write: %v", err)
			}
		})
	}
}

// TestReplaceReachesFollower: a replace (BulkLoad) is a commit, so it
// reaches a follower through the commit clock on every layout. The follower
// is seeded over a delayed link, then the primary bulk-loads skewed keys —
// once with the node up while the follower may still be catching up, once
// offline after the follower caught up, followed by a primary restart — and a
// write after it must tail through.
// The follower must end holding exactly the bulk contents plus that write,
// none of the seed, and on the sharded row the primary's new bounds.
func TestReplaceReachesFollower(t *testing.T) {
	const seed, bulk = 300, 1000
	keys := make([]uint64, bulk)
	vals := make([]uint64, bulk)
	for i := range keys {
		keys[i] = uint64(i+1) * (1 << 20) // all in the lowest sliver of key space
		vals[i] = valOf(keys[i])
	}
	for _, l := range replLayouts {
		for _, offline := range []bool{false, true} {
			name := l.name + "/online"
			if offline {
				name = l.name + "/offline+restart"
			}
			t.Run(name, func(t *testing.T) {
				rp := startReplPair(t, l, repl.Options{}, repl.Options{PullWait: 50 * time.Millisecond})
				ctx := context.Background()

				// Slow the link so the follower is genuinely mid-catch-up
				// when the replace lands.
				rp.proxy.SetDelay(10 * time.Millisecond)
				for j := uint64(1); j <= seed; j++ {
					if err := rp.pc.Insert(ctx, spread(j), valOf(spread(j))); err != nil {
						t.Fatal(err)
					}
				}

				// BulkLoad requires quiescent writers; the seeding loop has
				// returned.
				oldBounds := boundsOf(rp.primaryIx)
				load := func(ix replIx) error { return ix.BulkLoad(keys, vals) }
				if offline {
					// A follower caught up to the old clock is the one a
					// replace that skipped the clock would strand.
					waitConverged(t, rp, 20*time.Second)
					rp.restartPrimary(t, load)
				} else if err := load(rp.primaryIx); err != nil {
					t.Fatal(err)
				}
				if l.shards > 1 && slices.Equal(boundsOf(rp.primaryIx), oldBounds) {
					t.Fatalf("BulkLoad of skewed keys kept bounds %v; the row exercises nothing", oldBounds)
				}

				// The stream stays live across the replace: a fresh write
				// tails through.
				if err := rp.pc.Insert(ctx, 42, valOf(42)); err != nil {
					t.Fatal(err)
				}
				rp.proxy.SetDelay(0)
				waitConverged(t, rp, 20*time.Second)

				if got := rp.followerIx.Len(); got != bulk+1 {
					t.Fatalf("follower Len = %d, want %d", got, bulk+1)
				}
				for i := range keys {
					if v, ok := rp.followerIx.Lookup(keys[i]); !ok || v != vals[i] {
						t.Fatalf("follower Lookup(%d) = %d,%v, want %d", keys[i], v, ok, vals[i])
					}
				}
				if v, ok := rp.followerIx.Lookup(42); !ok || v != valOf(42) {
					t.Fatalf("post-replace write: follower Lookup(42) = %d,%v", v, ok)
				}
				if h := rp.followerNode.Health(); h.Diverged || h.SnapshotBootstraps == 0 {
					t.Fatalf("follower crossed the replace without a bootstrap, or diverged: %+v", h)
				}
			})
		}
	}
}

// TestShardedReplicationLayoutMatrix: every pairing of an unsharded and a
// 2-shard primary with an unsharded and a 2-shard follower, over real
// servers. A matching pair converges to the primary's full contents. A
// mismatched pair fail-stops (Diverged, "shard counts must match") without
// ever applying a record, so it can never report itself caught up holding a
// partial copy that a failover would then serve.
func TestShardedReplicationLayoutMatrix(t *testing.T) {
	const n = 200
	for _, ps := range []int{1, 2} {
		for _, fs := range []int{1, 2} {
			t.Run(fmt.Sprintf("primary=%d/follower=%d", ps, fs), func(t *testing.T) {
				ctx := context.Background()
				pix, pnode := openLayout(t, t.TempDir(), layout{shards: ps}, &repl.Options{})
				primary := startServer(t, pix, server.Options{Repl: pnode})
				for j := uint64(1); j <= n; j++ {
					k := j * 0x9E3779B97F4A7C15 // spread over both halves of the key space
					if err := pix.InsertCtx(ctx, k, valOf(k)); err != nil {
						t.Fatal(err)
					}
				}

				var logMu sync.Mutex
				var logs []string
				fix, fnode := openLayout(t, t.TempDir(), layout{shards: fs}, &repl.Options{
					ReplicaOf:    primary.Addr().String(),
					PullWait:     50 * time.Millisecond,
					ReconnectMin: 10 * time.Millisecond,
					ReconnectMax: 100 * time.Millisecond,
					Logf: func(format string, args ...any) {
						logMu.Lock()
						logs = append(logs, fmt.Sprintf(format, args...))
						logMu.Unlock()
					},
				})
				t.Cleanup(func() {
					fnode.Close()
					fix.Close()     //nolint:errcheck
					primary.Close() //nolint:errcheck
					pnode.Close()
					pix.Close() //nolint:errcheck
				})

				deadline := time.Now().Add(15 * time.Second)
				for {
					h := fnode.Health()
					got := fix.Len()
					if ps != fs {
						if got != 0 {
							t.Fatalf("mismatched follower applied %d of %d keys (health %+v)", got, n, h)
						}
						if h.Diverged {
							break
						}
					} else if got == n && h.Lag == 0 {
						if h.Diverged {
							t.Fatalf("matching follower diverged: %+v", h)
						}
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("follower never settled: len %d of %d, health %+v", got, n, h)
					}
					time.Sleep(5 * time.Millisecond)
				}

				if ps != fs {
					logMu.Lock()
					defer logMu.Unlock()
					for _, l := range logs {
						if strings.Contains(l, "DIVERGENCE") && strings.Contains(l, "shard counts must match") {
							return
						}
					}
					t.Fatalf("divergence cause is not the shard-count mismatch; log:\n%s", strings.Join(logs, "\n"))
				}
				for j := uint64(1); j <= n; j++ {
					k := j * 0x9E3779B97F4A7C15
					if v, ok := fix.Lookup(k); !ok || v != valOf(k) {
						t.Fatalf("follower Lookup(%d) = %d,%v", k, v, ok)
					}
				}
			})
		}
	}
}

// keyFate classifies every submitted write for the failover oracle.
type keyFate int

const (
	fateAcked  keyFate = iota // nil error: must survive failover
	fateAbsent                // typed retryable rejection: guaranteed no durable effect
	fateMaybe                 // transport error / replica-lagging: fate unknown
)

// TestFailoverSoak is the fault-injected failover oracle, one row per layout
// with the same phases and one fate oracle:
//
//  1. seed writes, then a replace (BulkLoad) while the follower is still
//     catching up — a seed write that fails ErrReplicaLagging is ignored,
//     because the replace supersedes it;
//  2. semi-sync writers while the follower's link suffers drops, delays and
//     corrupted frames;
//  3. partition the link and promote the follower — each row names its
//     promotion: wire PROMOTE, or the failure detector with no operator.
//
// The oracle:
//
//   - link faults never diverge the follower (frame CRCs turn corruption
//     into reconnects), and its bounds match the primary's;
//   - every acked write reads back on the promoted follower with its exact
//     value (semi-sync means an ack implies the follower applied it);
//   - every write rejected with a retryable typed error left no trace;
//   - every bulk-loaded key survived, and no phantoms: everything present
//     was bulk-loaded or submitted;
//   - the promoted follower accepts writes at epoch 2; the deposed primary,
//     once fenced, refuses them and reports itself fenced.
func TestFailoverSoak(t *testing.T) {
	const (
		seed = 200
		bulk = 1024
		soak = 2 * time.Second
	)
	bulkSet := make(map[uint64]uint64, bulk)
	keys := make([]uint64, bulk)
	vals := make([]uint64, bulk)
	for i := range keys {
		// Spread over the full key space so the soak writers below (hashed
		// uniform keys) exercise every post-re-shard shard.
		keys[i] = uint64(i)*(1<<54) + 5
		vals[i] = valOf(keys[i])
		bulkSet[keys[i]] = vals[i]
	}
	for _, tc := range []struct {
		l        layout
		detector bool
	}{
		{replLayouts[0], false},
		{replLayouts[1], true},
		{replLayouts[2], true},
	} {
		promotion := "wire PROMOTE"
		if tc.detector {
			promotion = "detector"
		}
		t.Run(tc.l.name+"/"+promotion, func(t *testing.T) {
			rp := startReplPair(t, tc.l,
				repl.Options{SemiSync: true, AckTimeout: time.Second},
				repl.Options{PullWait: 50 * time.Millisecond},
			)
			ctx := context.Background()

			// Phase 1: seed, then replace mid-catch-up.
			for j := uint64(1); j <= seed; j++ {
				if err := rp.pc.Insert(ctx, spread(j), valOf(spread(j))); err != nil && !errors.Is(err, chameleon.ErrReplicaLagging) {
					t.Fatal(err)
				}
			}
			if err := rp.primaryIx.BulkLoad(keys, vals); err != nil {
				t.Fatal(err)
			}
			waitConverged(t, rp, 20*time.Second)

			// Phase 2: fault-injected soak. Writer keys are hash-spread and
			// disjoint across writers; any collision with the bulk-loaded
			// set is skipped so the two oracles never claim the same key.
			var (
				mu    sync.Mutex
				fates = make(map[uint64]keyFate)
			)
			classify := func(key uint64, err error) {
				f := fateMaybe // transport error, or durable locally but unconfirmed remotely
				var re *wire.RemoteError
				switch {
				case err == nil:
					f = fateAcked
				case errors.Is(err, chameleon.ErrReplicaLagging):
				case errors.As(err, &re) && re.Retryable():
					f = fateAbsent
				}
				mu.Lock()
				fates[key] = f
				mu.Unlock()
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					wc := dialClient(t, rp.primary, client.Options{MaxRetries: 1})
					defer wc.Close() //nolint:errcheck
					for j := uint64(1); ; j++ {
						select {
						case <-stop:
							return
						default:
						}
						k := spread(j*3+uint64(w)+1) + 1
						if _, isBulk := bulkSet[k]; isBulk {
							continue
						}
						// A fresh deadline per write, so a dead link surfaces
						// as an error rather than a stall.
						wctx, cancel := context.WithTimeout(ctx, 3*time.Second)
						classify(k, wc.Insert(wctx, k, valOf(k)))
						cancel()
					}
				}(w)
			}
			deadline := time.Now().Add(soak)
			for i := 0; time.Now().Before(deadline); i++ {
				switch i % 4 {
				case 0:
					rp.proxy.DropConns()
				case 1:
					rp.proxy.SetDelay(20 * time.Millisecond)
				case 2:
					rp.proxy.CorruptChunks(1)
				case 3:
					rp.proxy.SetDelay(0)
				}
				time.Sleep(250 * time.Millisecond)
			}
			rp.proxy.SetDelay(0)

			// Phase 3: partition, let a few more writes land in the
			// ambiguous window, stop the writers, and promote.
			promoted := make(chan uint64, 1)
			if tc.detector {
				det := failover.Start(rp.followerNode, failover.Options{
					Upstream:      rp.proxy.Addr(),
					SuspectAfter:  300 * time.Millisecond,
					ProbeInterval: 50 * time.Millisecond,
					Probes:        3,
					OnPromoted:    func(epoch uint64, _, _ time.Duration) { promoted <- epoch },
				})
				defer det.Stop()
			}
			rp.proxy.Partition(true)
			time.Sleep(300 * time.Millisecond)
			close(stop)
			wg.Wait()
			if !tc.detector {
				epoch, role, err := rp.fc.Promote(ctx)
				if err != nil {
					t.Fatalf("Promote: %v", err)
				}
				if role != chameleon.RolePrimary {
					t.Fatalf("Promote = role %v", role)
				}
				promoted <- epoch
			}
			select {
			case epoch := <-promoted:
				if epoch != 2 {
					t.Fatalf("promoted at epoch %d, want 2", epoch)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("the follower was never promoted")
			}
			if role, epoch := rp.followerNode.Role(); role != chameleon.RolePrimary || epoch != 2 {
				t.Fatalf("post-failover role %v epoch %d", role, epoch)
			}

			// Oracle: never diverged, bounds converged.
			if h := rp.followerNode.Health(); h.Diverged {
				t.Fatalf("follower diverged during link faults: %+v", h)
			}
			if fb, pb := boundsOf(rp.followerIx), boundsOf(rp.primaryIx); !slices.Equal(fb, pb) {
				t.Fatalf("bounds diverged: follower %v, primary %v", fb, pb)
			}

			// Oracle: exists-iff-acked.
			mu.Lock()
			defer mu.Unlock()
			var acked, absent, maybe int
			for k, f := range fates {
				v, ok := rp.followerIx.Lookup(k)
				switch f {
				case fateAcked:
					acked++
					if !ok || v != valOf(k) {
						t.Fatalf("acked write %d lost across failover (found=%v val=%d)", k, ok, v)
					}
				case fateAbsent:
					absent++
					if ok {
						t.Fatalf("retryable-rejected write %d appeared on the follower", k)
					}
				case fateMaybe:
					maybe++
				}
			}
			if acked == 0 {
				t.Fatal("soak produced zero acked writes; the oracle proved nothing")
			}
			t.Logf("soak fates: %d acked, %d guaranteed-absent, %d ambiguous", acked, absent, maybe)

			// Oracle: the bulk-loaded contents survived; no phantoms.
			for i := range keys {
				if v, ok := rp.followerIx.Lookup(keys[i]); !ok || v != vals[i] {
					t.Fatalf("bulk-loaded key %d lost (found=%v val=%d)", keys[i], ok, v)
				}
			}
			phantom := 0
			rp.followerIx.Range(0, ^uint64(0), func(k, v uint64) bool {
				_, isBulk := bulkSet[k]
				if _, submitted := fates[k]; !isBulk && !submitted {
					phantom++
				}
				return true
			})
			if phantom > 0 {
				t.Fatalf("%d phantom keys on the promoted follower", phantom)
			}

			// Oracle: the new primary accepts writes; the deposed one, once
			// the fencing epoch reaches it, refuses them.
			if err := rp.fc.Insert(ctx, 42_000_000, 42); err != nil {
				t.Fatalf("write on promoted follower: %v", err)
			}
			rp.proxy.Partition(false)
			if _, _, err := rp.pc.Fence(ctx, 2); err != nil {
				t.Fatalf("Fence(old primary, 2): %v", err)
			}
			if err := rp.pc.Insert(ctx, 43_000_000, 43); !errors.Is(err, chameleon.ErrNotPrimary) {
				t.Fatalf("write on deposed primary: %v, want ErrNotPrimary", err)
			}
			ps, _, err := rp.pc.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if ps.ReplRole != "fenced" || ps.ReplEpoch != 2 {
				t.Fatalf("deposed primary stats = role %q epoch %d, want fenced epoch 2", ps.ReplRole, ps.ReplEpoch)
			}
		})
	}
}

// TestFencedNodeStaysFencedAcrossRestart (the repl.meta regression test): a
// node fenced at epoch E, restarted from the same directory, must come back
// fenced — Promote refuses with ErrFencedNode and writes bounce with
// ErrNotPrimary. Without the sidecar a restarted deposed primary would boot
// as a fresh epoch-1 primary and split the brain.
func TestFencedNodeStaysFencedAcrossRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	ix := openIx(t, dir, chameleon.DirOptions{})
	node := repl.New(ix, repl.Options{})
	if _, role, err := node.Fence(7); role != chameleon.RoleFenced || err != nil {
		t.Fatalf("Fence(7) left role %v (err %v)", role, err)
	}
	node.Close()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same directory, fresh node with primary-shaped options.
	ix2 := openIx(t, dir, chameleon.DirOptions{})
	node2 := repl.New(ix2, repl.Options{})
	defer node2.Close()
	if role, epoch := node2.Role(); role != chameleon.RoleFenced || epoch != 7 {
		t.Fatalf("restarted node role %v epoch %d, want fenced epoch 7", role, epoch)
	}
	if _, err := node2.Promote(); !errors.Is(err, repl.ErrFencedNode) {
		t.Fatalf("Promote on restarted fenced node: %v, want ErrFencedNode", err)
	}
	s := startServer(t, ix2, server.Options{Repl: node2})
	c := dialClient(t, s, client.Options{})
	defer c.Close() //nolint:errcheck
	if err := c.Insert(ctx, 1, 1); !errors.Is(err, chameleon.ErrNotPrimary) {
		t.Fatalf("write on restarted fenced node: %v, want ErrNotPrimary", err)
	}

	// A follower that adopted an epoch resumes at it after restart, rather
	// than regressing to zero and accepting a stale primary's stream.
	fdir := t.TempDir()
	fix := openIx(t, fdir, chameleon.DirOptions{})
	fnode := repl.New(fix, repl.Options{ReplicaOf: "127.0.0.1:1"}) // never connects
	if _, err := fnode.Promote(); err != nil {
		t.Fatal(err) // promote persists epoch 1+1... from epoch 0 base
	}
	_, epoch := fnode.Role()
	fnode.Close()
	if err := fix.Close(); err != nil {
		t.Fatal(err)
	}
	fix2 := openIx(t, fdir, chameleon.DirOptions{})
	defer fix2.Close() //nolint:errcheck
	fnode2 := repl.New(fix2, repl.Options{})
	defer fnode2.Close()
	if role, e2 := fnode2.Role(); role != chameleon.RolePrimary || e2 != epoch {
		t.Fatalf("restarted promoted node role %v epoch %d, want primary epoch %d", role, e2, epoch)
	}
}
