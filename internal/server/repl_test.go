package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
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
// writes tokens, and the fault-injected failover soak whose oracle is the
// acceptance criterion for DESIGN.md §12.

// replPair is a primary server and a follower server replicating from it
// through a netfault proxy, with a client dialed to each.
type replPair struct {
	primaryIx, followerIx     *chameleon.DurableIndex
	primaryNode, followerNode *repl.Node
	primary, follower         *server.Server
	proxy                     *netfault.Proxy
	pc, fc                    *client.Client
}

// startReplPair wires primary ← proxy ← follower and dials both servers.
// popts/fopts default sensibly for tests (fast pulls, fast reconnects).
func startReplPair(t *testing.T, popts, fopts repl.Options) *replPair {
	t.Helper()
	rp := &replPair{}
	rp.primaryIx = openIx(t, t.TempDir(), chameleon.DirOptions{})
	rp.primaryNode = repl.New(rp.primaryIx, popts)
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
	rp.followerIx = openIx(t, t.TempDir(), chameleon.DirOptions{})
	rp.followerNode = repl.New(rp.followerIx, fopts)
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
// version's shape; the other is a v3 peer's HELLO byte for byte (version 3,
// then 8 bytes of feature bits).
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
			payload, err := wire.ReadFrame(nc)
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
			if _, err := wire.ReadFrame(nc); err == nil {
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
	_, err := c.ReplPull(ctx, 0, 1, 10, 0, 0, 0)
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
	if _, err := good.ReplPull(ctx, 0, 1, 10, 0, 0, 0); err != nil {
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
			if _, err := wire.ReadFrame(nc); err == nil {
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

// TestReplicationCatchUpAndReadYourWrites: the bread-and-butter pair. Writes
// land on the primary, the follower converges, write replies carry commit-
// sequence tokens, and GetAtLeast on the follower blocks until the token's
// write is visible — read-your-writes across the replication gap. Writes to
// the follower bounce with ErrNotPrimary.
func TestReplicationCatchUpAndReadYourWrites(t *testing.T) {
	rp := startReplPair(t, repl.Options{}, repl.Options{})
	ctx := context.Background()

	const n = 200
	for k := uint64(1); k <= n; k++ {
		if err := rp.pc.Insert(ctx, k, valOf(k)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if got := rp.pc.LastSeq(); got != n {
		t.Fatalf("client seq token = %d, want %d", got, n)
	}

	// Read-your-writes: ask the follower for the last write at its token.
	v, found, err := rp.fc.GetAtLeast(ctx, n, rp.pc.LastSeq(), 5*time.Second)
	if err != nil || !found || v != valOf(n) {
		t.Fatalf("GetAtLeast(%d, seq %d) = %d,%v,%v", uint64(n), rp.pc.LastSeq(), v, found, err)
	}
	waitFollowerSeq(t, rp.followerIx, n, 10*time.Second)

	// Fail-fast WaitSeq: a token far beyond the stream with no wait budget.
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
	if ps.ReplRole != "primary" || ps.ReplEpoch != 1 || ps.CommitSeq != n {
		t.Fatalf("primary stats = role %q epoch %d seq %d", ps.ReplRole, ps.ReplEpoch, ps.CommitSeq)
	}
	fs, _, err := rp.fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fs.ReplRole != "follower" || !fs.ReplConnected || fs.ReplLastApplied != n {
		t.Fatalf("follower stats = %+v", fs)
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

// shardedReplPair is the sharded analogue of replPair: a sharded primary and
// a sharded follower (same shard count) replicating through a netfault proxy,
// one pull stream per shard.
type shardedReplPair struct {
	primaryIx, followerIx     *chameleon.ShardedIndex
	primaryNode, followerNode *repl.Node
	primary, follower         *server.Server
	proxy                     *netfault.Proxy
	pc, fc                    *client.Client
}

func startShardedReplPair(t *testing.T, shards int, popts, fopts repl.Options) *shardedReplPair {
	t.Helper()
	rp := &shardedReplPair{}
	var err error
	rp.primaryIx, err = chameleon.OpenShardedDir(t.TempDir(), chameleon.ShardDirOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	rp.primaryNode = repl.NewSharded(rp.primaryIx, popts)
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
	rp.followerIx, err = chameleon.OpenShardedDir(t.TempDir(), chameleon.ShardDirOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	rp.followerNode = repl.NewSharded(rp.followerIx, fopts)
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

// waitShardedConverged polls until the follower's manifest generation and
// bounds match the primary's and every shard's commit clock has caught up.
func waitShardedConverged(t *testing.T, rp *shardedReplPair, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		ok := rp.followerIx.ManifestGen() == rp.primaryIx.ManifestGen() &&
			equalBounds(rp.followerIx.Bounds(), rp.primaryIx.Bounds())
		if ok {
			for i := 0; i < rp.primaryIx.Shards(); i++ {
				if rp.followerIx.ShardCommitSeq(i) < rp.primaryIx.ShardCommitSeq(i) {
					ok = false
					break
				}
			}
		}
		if ok && rp.followerIx.Len() == rp.primaryIx.Len() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sharded follower never converged: gen %d/%d len %d/%d bounds %v/%v",
				rp.followerIx.ManifestGen(), rp.primaryIx.ManifestGen(),
				rp.followerIx.Len(), rp.primaryIx.Len(),
				rp.followerIx.Bounds(), rp.primaryIx.Bounds())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func equalBounds(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedReplicationConverges: the sharded bread-and-butter. Writes route
// across all shards on the primary; the follower pulls every shard's stream
// and converges, per-shard lag surfaces in STATS, and the follower stays
// read-only.
func TestShardedReplicationConverges(t *testing.T) {
	const shards = 4
	rp := startShardedReplPair(t, shards, repl.Options{}, repl.Options{})
	ctx := context.Background()

	// Spread keys over the whole key space so every shard sees traffic.
	const n = 400
	for j := uint64(1); j <= n; j++ {
		k := j * 0x9E3779B97F4A7C15 // odd multiplier: bijective, uniform
		if err := rp.pc.Insert(ctx, k, valOf(k)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	waitShardedConverged(t, rp, 15*time.Second)

	for j := uint64(1); j <= n; j++ {
		k := j * 0x9E3779B97F4A7C15
		if v, ok := rp.followerIx.Lookup(k); !ok || v != valOf(k) {
			t.Fatalf("follower Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	for i := 0; i < shards; i++ {
		if got, want := rp.followerIx.ShardCommitSeq(i), rp.primaryIx.ShardCommitSeq(i); got != want {
			t.Fatalf("shard %d follower seq %d, primary %d", i, got, want)
		}
	}

	// STATS carries the per-shard lag vector on both roles.
	fs, _, err := rp.fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fs.ReplRole != "follower" || len(fs.ReplShardLagSeqs) != shards {
		t.Fatalf("follower stats: role %q shard lags %v", fs.ReplRole, fs.ReplShardLagSeqs)
	}
	for i, lag := range fs.ReplShardLagSeqs {
		if lag != 0 {
			t.Fatalf("converged follower reports lag %d on shard %d", lag, i)
		}
	}
	ps, _, err := rp.pc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ps.ReplRole != "primary" || len(ps.ReplShardLagSeqs) != shards {
		t.Fatalf("primary stats: role %q shard lags %v", ps.ReplRole, ps.ReplShardLagSeqs)
	}

	if err := rp.fc.Insert(ctx, 7777, 1); !errors.Is(err, chameleon.ErrNotPrimary) {
		t.Fatalf("Insert on sharded follower: %v, want ErrNotPrimary", err)
	}
}

// TestShardedManifestReshardConvergence (the boundary-replication test):
// BulkLoad on the primary rewrites the manifest — new generation, new
// equi-depth bounds — while the follower is still mid-catch-up on the old
// layout. The follower must notice the generation change, adopt the new
// layout, re-bootstrap every shard, and converge to exactly the bulk-loaded
// contents under the new bounds.
func TestShardedManifestReshardConvergence(t *testing.T) {
	const shards = 4
	rp := startShardedReplPair(t, shards,
		repl.Options{},
		repl.Options{PullWait: 50 * time.Millisecond},
	)
	ctx := context.Background()

	// Slow the link so the follower is genuinely mid-catch-up when the
	// re-shard lands.
	rp.proxy.SetDelay(10 * time.Millisecond)
	const seed = 300
	for j := uint64(1); j <= seed; j++ {
		k := j * 0x9E3779B97F4A7C15
		if err := rp.pc.Insert(ctx, k, valOf(k)); err != nil {
			t.Fatal(err)
		}
	}

	// Re-shard: skewed keys so the equi-depth bounds move far from the
	// uniform initial split. BulkLoad requires quiescent writers; the seeding
	// loop above has returned.
	const bulk = 1000
	keys := make([]uint64, bulk)
	vals := make([]uint64, bulk)
	for i := range keys {
		keys[i] = uint64(i) * (1 << 20) // all in the lowest sliver of key space
		vals[i] = valOf(keys[i])
	}
	oldBounds := rp.primaryIx.Bounds()
	if err := rp.primaryIx.BulkLoad(keys, vals); err != nil {
		t.Fatal(err)
	}
	if gen := rp.primaryIx.ManifestGen(); gen != 2 {
		t.Fatalf("primary gen after BulkLoad = %d, want 2", gen)
	}
	if equalBounds(rp.primaryIx.Bounds(), oldBounds) {
		t.Fatalf("BulkLoad of skewed keys kept bounds %v; the test exercises nothing", oldBounds)
	}

	rp.proxy.SetDelay(0)
	waitShardedConverged(t, rp, 20*time.Second)

	// The follower holds exactly the bulk-loaded contents: every loaded key
	// with its value, nothing else (the pre-load seed keys are gone).
	if got := rp.followerIx.Len(); got != bulk {
		t.Fatalf("follower Len = %d, want %d", got, bulk)
	}
	for _, i := range []int{0, bulk / 2, bulk - 1} {
		if v, ok := rp.followerIx.Lookup(keys[i]); !ok || v != vals[i] {
			t.Fatalf("follower Lookup(%d) = %d,%v, want %d", keys[i], v, ok, vals[i])
		}
	}

	// The stream stays live across the adoption: a fresh write tails through.
	if err := rp.pc.Insert(ctx, 42, 4242); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := rp.followerIx.Lookup(42); ok && v == 4242 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("post-reshard write never reached the follower")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// openLayout opens a fresh index with the given shard count — 1 is a plain
// DurableIndex, as chameleon-serve opens it without -shards — and wires a
// replication node to it.
func openLayout(t *testing.T, shards int, opts repl.Options) (server.Index, *repl.Node) {
	t.Helper()
	if shards == 1 {
		ix := openIx(t, t.TempDir(), chameleon.DirOptions{})
		return ix, repl.New(ix, opts)
	}
	ix, err := chameleon.OpenShardedDir(t.TempDir(), chameleon.ShardDirOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return ix, repl.NewSharded(ix, opts)
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
				pix, pnode := openLayout(t, ps, repl.Options{})
				primary := startServer(t, pix, server.Options{Repl: pnode})
				for j := uint64(1); j <= n; j++ {
					k := j * 0x9E3779B97F4A7C15 // spread over both halves of the key space
					if err := pix.InsertCtx(ctx, k, valOf(k)); err != nil {
						t.Fatal(err)
					}
				}

				var logMu sync.Mutex
				var logs []string
				fix, fnode := openLayout(t, fs, repl.Options{
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

// TestFailoverSoak is the fault-injected failover oracle (the tentpole's
// acceptance test). A semi-sync primary takes writes while the follower's
// replication link suffers drops, delays, and corrupted frames; then the
// link partitions, the follower is promoted, and the deposed primary is
// fenced. The oracle:
//
//   - every acked write reads back on the promoted follower (semi-sync means
//     an ack implies the follower applied it),
//   - every key present on the promoted follower was actually submitted (no
//     phantoms),
//   - writes rejected with a retryable typed error left no durable trace,
//   - link faults never diverge the follower (frame CRCs turn corruption
//     into reconnects),
//   - the deposed primary refuses writes once fenced, and the promoted
//     follower accepts them.
func TestFailoverSoak(t *testing.T) {
	rp := startReplPair(t,
		repl.Options{SemiSync: true, AckTimeout: time.Second},
		repl.Options{},
	)
	ctx := context.Background()

	var (
		mu    sync.Mutex
		fates = make(map[uint64]keyFate)
		vals  = make(map[uint64]uint64)
	)
	classify := func(key uint64, err error) {
		f := fateMaybe
		switch {
		case err == nil:
			f = fateAcked
		case errors.Is(err, chameleon.ErrReplicaLagging):
			f = fateMaybe // durable locally, unconfirmed remotely
		default:
			var re *wire.RemoteError
			if errors.As(err, &re) && re.Retryable() {
				f = fateAbsent
			}
		}
		mu.Lock()
		fates[key] = f
		vals[key] = valOf(key)
		mu.Unlock()
	}

	// Writers: 3 goroutines on disjoint key ranges, each write on a fresh
	// deadline so a dead link surfaces as an error rather than a stall.
	const soak = 2 * time.Second
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := dialClient(t, rp.primary, client.Options{MaxRetries: 1})
			defer wc.Close() //nolint:errcheck
			for k := uint64(w)*1_000_000 + 1; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				wctx, cancel := context.WithTimeout(ctx, 3*time.Second)
				classify(k, wc.Insert(wctx, k, valOf(k)))
				cancel()
			}
		}(w)
	}

	// Fault injector: cycle drops, delay, and corruption on the link.
	faultDone := make(chan struct{})
	go func() {
		defer close(faultDone)
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
	}()
	<-faultDone

	// Partition, let a few more writes land in the ambiguous window, then
	// stop the writers.
	rp.proxy.Partition(true)
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Failover: promote the follower over the wire while the old primary is
	// unreachable from it.
	epoch, role, err := rp.fc.Promote(ctx)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if role != chameleon.RolePrimary || epoch != 2 {
		t.Fatalf("Promote = role %v epoch %d, want primary epoch 2", role, epoch)
	}

	// Oracle 1: link faults never diverged the follower.
	if h := rp.followerNode.Health(); h.Diverged {
		t.Fatalf("follower diverged during link faults: %+v", h)
	}

	// Oracle 2: every acked write survives the failover, with its exact
	// value; every retryable-rejected write left no trace.
	mu.Lock()
	defer mu.Unlock()
	var acked, absent, maybe int
	for k, f := range fates {
		v, ok := rp.followerIx.Lookup(k)
		switch f {
		case fateAcked:
			acked++
			if !ok || v != vals[k] {
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

	// Oracle 3: no phantoms — everything on the promoted follower was
	// actually submitted.
	phantom := 0
	rp.followerIx.Range(0, ^uint64(0), func(k, v uint64) bool {
		if _, submitted := fates[k]; !submitted {
			phantom++
		}
		return true
	})
	if phantom > 0 {
		t.Fatalf("%d phantom keys on the promoted follower", phantom)
	}

	// Oracle 4: the new primary accepts writes; the deposed one, once the
	// fencing epoch reaches it, refuses them.
	if err := rp.fc.Insert(ctx, 42_000_000, 42); err != nil {
		t.Fatalf("write on promoted follower: %v", err)
	}
	rp.proxy.Partition(false)
	if _, _, err := rp.pc.Fence(ctx, epoch); err != nil {
		t.Fatalf("Fence(old primary, %d): %v", epoch, err)
	}
	if err := rp.pc.Insert(ctx, 43_000_000, 43); !errors.Is(err, chameleon.ErrNotPrimary) {
		t.Fatalf("write on deposed primary: %v, want ErrNotPrimary", err)
	}
	ps, _, err := rp.pc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ps.ReplRole != "fenced" || ps.ReplEpoch != epoch {
		t.Fatalf("deposed primary stats = role %q epoch %d, want fenced epoch %d", ps.ReplRole, ps.ReplEpoch, epoch)
	}
}

// TestShardedFailoverSoak is the sharded tentpole oracle. Phase 1: seed
// writes across all shards, then BulkLoad a re-shard (new generation, new
// bounds) while the follower is still catching up — the manifest itself is a
// replicated, fenced commit point. Phase 2: fault-injected writers (drops,
// delay, corruption on the link) against the semi-sync primary. Phase 3:
// partition the primary away and let the failure detector promote the
// follower automatically. The oracle, per shard:
//
//   - every write acked after the re-shard reads back on the promoted
//     follower with its exact value,
//   - every retryable-rejected write left no trace,
//   - no phantoms: everything present was either bulk-loaded or submitted,
//   - the follower's manifest generation and bounds match the primary's, and
//     it never diverged,
//   - the promoted follower accepts writes at epoch 2; the deposed primary,
//     once fenced, refuses them.
func TestShardedFailoverSoak(t *testing.T) {
	const shards = 4
	rp := startShardedReplPair(t, shards,
		repl.Options{SemiSync: true, AckTimeout: time.Second},
		repl.Options{PullWait: 50 * time.Millisecond},
	)
	ctx := context.Background()

	// Phase 1: seed traffic, then re-shard mid-catch-up.
	const seed = 200
	for j := uint64(1); j <= seed; j++ {
		k := j * 0x9E3779B97F4A7C15
		if err := rp.pc.Insert(ctx, k, valOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	const bulk = 1024
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
	if err := rp.primaryIx.BulkLoad(keys, vals); err != nil {
		t.Fatal(err)
	}
	waitShardedConverged(t, rp, 20*time.Second)

	// Phase 2: fault-injected soak. Writer keys are hash-spread so every
	// post-re-shard shard sees traffic; any (astronomically unlikely)
	// collision with the bulk-loaded set is skipped outright so the two
	// oracles never claim the same key.
	var (
		mu    sync.Mutex
		fates = make(map[uint64]keyFate)
		wvals = make(map[uint64]uint64)
	)
	classify := func(key uint64, err error) {
		f := fateMaybe
		switch {
		case err == nil:
			f = fateAcked
		case errors.Is(err, chameleon.ErrReplicaLagging):
			f = fateMaybe
		default:
			var re *wire.RemoteError
			if errors.As(err, &re) && re.Retryable() {
				f = fateAbsent
			}
		}
		mu.Lock()
		fates[key] = f
		wvals[key] = valOf(key)
		mu.Unlock()
	}

	const soak = 2 * time.Second
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
				k := (j*3+uint64(w)+1)*0x9E3779B97F4A7C15 + 1 // uniform, disjoint across writers
				if _, isBulk := bulkSet[k]; isBulk {
					continue
				}
				wctx, cancel := context.WithTimeout(ctx, 3*time.Second)
				classify(k, wc.Insert(wctx, k, valOf(k)))
				cancel()
			}
		}(w)
	}

	faultDone := make(chan struct{})
	go func() {
		defer close(faultDone)
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
	}()
	<-faultDone

	// Phase 3: partition and let the detector do the promotion — no operator.
	promoted := make(chan uint64, 1)
	det := failover.Start(rp.followerNode, failover.Options{
		Upstream:      rp.proxy.Addr(),
		SuspectAfter:  300 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
		Probes:        3,
		OnPromoted:    func(epoch uint64, _, _ time.Duration) { promoted <- epoch },
	})
	defer det.Stop()
	rp.proxy.Partition(true)
	time.Sleep(300 * time.Millisecond) // ambiguous-window writes
	close(stop)
	wg.Wait()

	select {
	case epoch := <-promoted:
		if epoch != 2 {
			t.Fatalf("auto-promoted at epoch %d, want 2", epoch)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("detector never promoted the sharded follower")
	}
	if role, epoch := rp.followerNode.Role(); role != chameleon.RolePrimary || epoch != 2 {
		t.Fatalf("post-failover role %v epoch %d", role, epoch)
	}

	// Oracle: layout converged, never diverged.
	if h := rp.followerNode.Health(); h.Diverged {
		t.Fatalf("sharded follower diverged during link faults: %+v", h)
	}
	if fg, pg := rp.followerIx.ManifestGen(), rp.primaryIx.ManifestGen(); fg != pg {
		t.Fatalf("manifest generation diverged: follower %d, primary %d", fg, pg)
	}
	if !equalBounds(rp.followerIx.Bounds(), rp.primaryIx.Bounds()) {
		t.Fatalf("bounds diverged: follower %v, primary %v", rp.followerIx.Bounds(), rp.primaryIx.Bounds())
	}

	// Oracle: exists-iff-acked, accounted per shard so a localized stream bug
	// names its shard.
	bounds := rp.followerIx.Bounds()
	shardOf := func(k uint64) int {
		i := 0
		for i < len(bounds) && k >= bounds[i] {
			i++
		}
		return i
	}
	ackedBy := make([]int, shards)
	mu.Lock()
	defer mu.Unlock()
	var acked, absent, maybe int
	for k, f := range fates {
		v, ok := rp.followerIx.Lookup(k)
		switch f {
		case fateAcked:
			acked++
			ackedBy[shardOf(k)]++
			if !ok || v != wvals[k] {
				t.Fatalf("acked write %d (shard %d) lost across sharded failover (found=%v val=%d)",
					k, shardOf(k), ok, v)
			}
		case fateAbsent:
			absent++
			if ok {
				t.Fatalf("retryable-rejected write %d (shard %d) appeared on the follower", k, shardOf(k))
			}
		case fateMaybe:
			maybe++
		}
	}
	if acked == 0 {
		t.Fatal("soak produced zero acked writes; the oracle proved nothing")
	}
	t.Logf("sharded soak fates: %d acked %v, %d guaranteed-absent, %d ambiguous", acked, ackedBy, absent, maybe)

	// Oracle: bulk-loaded contents survived the catch-up and the failover.
	for _, i := range []int{0, bulk / 2, bulk - 1} {
		if v, ok := rp.followerIx.Lookup(keys[i]); !ok || v != vals[i] {
			t.Fatalf("bulk-loaded key %d lost (found=%v val=%d)", keys[i], ok, v)
		}
	}

	// Oracle: no phantoms anywhere in the key space.
	phantom := 0
	rp.followerIx.Range(0, ^uint64(0), func(k, v uint64) bool {
		if _, isBulk := bulkSet[k]; isBulk {
			return true
		}
		if _, submitted := fates[k]; !submitted {
			phantom++
		}
		return true
	})
	if phantom > 0 {
		t.Fatalf("%d phantom keys on the promoted sharded follower", phantom)
	}

	// Oracle: the new primary accepts writes; the deposed one, fenced, refuses.
	if err := rp.fc.Insert(ctx, 42_000_000, 42); err != nil {
		t.Fatalf("write on auto-promoted sharded follower: %v", err)
	}
	rp.proxy.Partition(false)
	if _, _, err := rp.pc.Fence(ctx, 2); err != nil {
		t.Fatalf("Fence(old primary, 2): %v", err)
	}
	if err := rp.pc.Insert(ctx, 43_000_000, 43); !errors.Is(err, chameleon.ErrNotPrimary) {
		t.Fatalf("write on deposed sharded primary: %v, want ErrNotPrimary", err)
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
