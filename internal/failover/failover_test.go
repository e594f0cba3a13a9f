package failover_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/failover"
	"chameleon/internal/netfault"
	"chameleon/internal/repl"
	"chameleon/internal/server"
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

func startServer(t *testing.T, ix server.Index, sopts server.Options) *server.Server {
	t.Helper()
	s := server.New(ix, sopts)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go s.Serve()                    //nolint:errcheck
	t.Cleanup(func() { s.Close() }) //nolint:errcheck
	return s
}

// pair is a primary and a follower replicating from it through a netfault
// proxy, so tests can kill the link (and the primary) on demand.
type pair struct {
	primaryIx, followerIx     *chameleon.DurableIndex
	primaryNode, followerNode *repl.Node
	primary, follower         *server.Server
	proxy                     *netfault.Proxy
}

func startPair(t *testing.T) *pair {
	t.Helper()
	p := &pair{}
	p.primaryIx = openIx(t)
	p.primaryNode = repl.New(p.primaryIx, repl.Options{})
	t.Cleanup(p.primaryNode.Close)
	p.primary = startServer(t, p.primaryIx, server.Options{Repl: p.primaryNode})

	proxy, err := netfault.New(p.primary.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	p.proxy = proxy
	t.Cleanup(proxy.Close)

	p.followerIx = openIx(t)
	p.followerNode = repl.New(p.followerIx, repl.Options{
		ReplicaOf:    proxy.Addr(),
		PullWait:     50 * time.Millisecond,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	t.Cleanup(p.followerNode.Close)
	p.follower = startServer(t, p.followerIx, server.Options{Repl: p.followerNode})
	return p
}

// fastOpts is a detector tuned for test time scales; probes go through the
// proxy so a partition kills both the pull path and the probe path.
func fastOpts(p *pair) failover.Options {
	return failover.Options{
		Upstream:      p.proxy.Addr(),
		SuspectAfter:  200 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
		Probes:        3,
	}
}

// TestDetectorPromotesOnDeadPrimary: partition the primary away; the
// detector must declare death, promote the follower (epoch 2), and open it
// for writes — and every write acked by the primary before the partition
// must read back on the new primary.
func TestDetectorPromotesOnDeadPrimary(t *testing.T) {
	p := startPair(t)
	ctx := context.Background()
	pc, err := client.Dial(p.primary.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close() //nolint:errcheck

	const n = 100
	for k := uint64(1); k <= n; k++ {
		if err := pc.Insert(ctx, k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.followerIx.CommitSeq() < n {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d", p.followerIx.CommitSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}

	promoted := make(chan uint64, 1)
	opts := fastOpts(p)
	opts.OnPromoted = func(epoch uint64, _, _ time.Duration) { promoted <- epoch }
	d := failover.Start(p.followerNode, opts)
	defer d.Stop()

	p.proxy.Partition(true)
	select {
	case epoch := <-promoted:
		if epoch != 2 {
			t.Fatalf("promoted at epoch %d, want 2", epoch)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("detector never promoted a partitioned-away follower")
	}
	if d.Promotions() != 1 {
		t.Fatalf("promotions = %d", d.Promotions())
	}
	if role, epoch := p.followerNode.Role(); role != chameleon.RolePrimary || epoch != 2 {
		t.Fatalf("post-failover role %v epoch %d", role, epoch)
	}

	// The promoted node serves every pre-partition write and accepts new ones.
	for _, k := range []uint64{1, n / 2, n} {
		if v, ok := p.followerIx.Lookup(k); !ok || v != k*3 {
			t.Fatalf("acked write %d lost across auto-failover (%d, %v)", k, v, ok)
		}
	}
	fc, err := client.Dial(p.follower.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close() //nolint:errcheck
	if err := fc.Insert(ctx, 9999, 1); err != nil {
		t.Fatalf("write on auto-promoted node: %v", err)
	}

	// Heal the partition: the first fence to reach the deposed primary must
	// shut its writes down.
	p.proxy.Partition(false)
	if _, role, _ := p.primaryNode.Fence(2); role != chameleon.RoleFenced {
		t.Fatalf("deposed primary role %v, want fenced", role)
	}
	if err := pc.Insert(ctx, 10000, 1); !errors.Is(err, chameleon.ErrNotPrimary) {
		t.Fatalf("write on deposed primary: %v, want ErrNotPrimary", err)
	}
}

// TestDetectorHoldsWhilePrimaryAlive: a reachable primary must never be
// failed over, even when the detector's thresholds are tight enough that an
// idle pull link flirts with the stall clock.
func TestDetectorHoldsWhilePrimaryAlive(t *testing.T) {
	p := startPair(t)
	d := failover.Start(p.followerNode, fastOpts(p))
	defer d.Stop()

	time.Sleep(time.Second) // many multiples of SuspectAfter + probe window
	if n := d.Promotions(); n != 0 {
		t.Fatalf("detector promoted %d times beside a live primary", n)
	}
	if role, _ := p.followerNode.Role(); role != chameleon.RoleFollower {
		t.Fatalf("follower role %v", role)
	}
}

// TestDetectorHoldsOnAsymmetricStall: the pull path is stalled (partition at
// the proxy) but the primary itself still answers probes on its real
// address. Promotion would be a split brain; the detector must hold.
func TestDetectorHoldsOnAsymmetricStall(t *testing.T) {
	p := startPair(t)
	opts := fastOpts(p)
	opts.Upstream = p.primary.Addr().String() // probe the real server, not the proxy
	d := failover.Start(p.followerNode, opts)
	defer d.Stop()

	p.proxy.Partition(true) // pull stalls; the primary is alive and probeable
	time.Sleep(time.Second)
	if n := d.Promotions(); n != 0 {
		t.Fatalf("detector promoted %d times while the primary answered probes", n)
	}
	if role, _ := p.followerNode.Role(); role != chameleon.RoleFollower {
		t.Fatalf("follower role %v", role)
	}
}

// TestDetectorRetiresOffFollower: once the node is promoted by other means,
// the detector notices and retires instead of double-promoting.
func TestDetectorRetiresOffFollower(t *testing.T) {
	p := startPair(t)
	d := failover.Start(p.followerNode, fastOpts(p))
	defer d.Stop()
	if _, err := p.followerNode.Promote(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second) // give a buggy detector ample time to misfire
	if n := d.Promotions(); n != 0 {
		t.Fatalf("detector promoted %d times on a manually promoted node", n)
	}
}

// trio is a primary with TWO detector-enabled followers, both pulling (and
// probing) through one netfault proxy so a single partition kills the
// primary for everyone at once — the topology the equal-epoch split brain
// needed.
type trio struct {
	p      *pair // primary + follower 1 (rank 0)
	f2Ix   *chameleon.DurableIndex
	f2Node *repl.Node
	f2     *server.Server
}

func startTrio(t *testing.T) *trio {
	t.Helper()
	tr := &trio{p: startPair(t)}
	tr.f2Ix = openIx(t)
	tr.f2Node = repl.New(tr.f2Ix, repl.Options{
		ReplicaOf:    tr.p.proxy.Addr(),
		PullWait:     50 * time.Millisecond,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	t.Cleanup(tr.f2Node.Close)
	tr.f2 = startServer(t, tr.f2Ix, server.Options{Repl: tr.f2Node})
	return tr
}

// TestConcurrentDetectorsNoEqualEpochSplitBrain: two followers both run
// -failover-auto against the same dead primary. Rank-unique epoch claims,
// the rank stagger, the pre-promotion peer check, and post-promotion peer
// fencing must together leave EXACTLY ONE unfenced primary — never two
// primaries at the same epoch, the split brain the old epoch+1 scheme
// allowed.
func TestConcurrentDetectorsNoEqualEpochSplitBrain(t *testing.T) {
	tr := startTrio(t)
	ctx := context.Background()
	pc, err := client.Dial(tr.p.primary.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close() //nolint:errcheck
	for k := uint64(1); k <= 50; k++ {
		if err := pc.Insert(ctx, k, k*7); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for tr.p.followerIx.CommitSeq() < 50 || tr.f2Ix.CommitSeq() < 50 {
		if time.Now().After(deadline) {
			t.Fatalf("followers stuck at %d/%d", tr.p.followerIx.CommitSeq(), tr.f2Ix.CommitSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}

	o1 := fastOpts(tr.p)
	o1.Rank, o1.Peers = 0, []string{tr.f2.Addr().String()}
	d1 := failover.Start(tr.p.followerNode, o1)
	defer d1.Stop()
	o2 := fastOpts(tr.p)
	o2.Rank, o2.Peers = 1, []string{tr.p.follower.Addr().String()}
	d2 := failover.Start(tr.f2Node, o2)
	defer d2.Stop()

	tr.p.proxy.Partition(true)

	// Settle: exactly one follower must end up an unfenced primary.
	nodes := []*repl.Node{tr.p.followerNode, tr.f2Node}
	deadline = time.Now().Add(15 * time.Second)
	for {
		primaries := 0
		for _, n := range nodes {
			if role, _ := n.Role(); role == chameleon.RolePrimary {
				primaries++
			}
		}
		if primaries == 1 {
			break
		}
		if time.Now().After(deadline) {
			r1, e1 := nodes[0].Role()
			r2, e2 := nodes[1].Role()
			t.Fatalf("never settled to one primary: f1 %v@%d, f2 %v@%d", r1, e1, r2, e2)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Hold the invariant for a while: there must NEVER be two unfenced
	// primaries. Both detectors acting is a legal (rare) race — the claims
	// are rank-unique, so the epochs differ and the higher claim fences the
	// lower; a fenced loser then legitimately carries the winner's epoch.
	for i := 0; i < 50; i++ {
		r1, e1 := nodes[0].Role()
		r2, e2 := nodes[1].Role()
		if r1 == chameleon.RolePrimary && r2 == chameleon.RolePrimary {
			t.Fatalf("two unfenced primaries: f1@%d f2@%d", e1, e2)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if total := d1.Promotions() + d2.Promotions(); total < 1 || total > 2 {
		t.Fatalf("promotions: d1 %d + d2 %d", d1.Promotions(), d2.Promotions())
	}
	if d1.Promotions()+d2.Promotions() == 2 {
		// Both acted: the loser must have been fenced by the winner's
		// post-promotion fence, not left as a rival primary (checked above),
		// and exactly one of the two must be fenced.
		r1, _ := nodes[0].Role()
		r2, _ := nodes[1].Role()
		fenced := 0
		if r1 == chameleon.RoleFenced {
			fenced++
		}
		if r2 == chameleon.RoleFenced {
			fenced++
		}
		if fenced != 1 {
			t.Fatalf("double promotion settled with %d fenced nodes (roles %v/%v), want 1", fenced, r1, r2)
		}
	}

	// Every pre-partition acked write survives on whichever node won.
	winner := tr.p.followerIx
	if role, _ := tr.f2Node.Role(); role == chameleon.RolePrimary {
		winner = tr.f2Ix
	}
	for _, k := range []uint64{1, 25, 50} {
		if v, ok := winner.Lookup(k); !ok || v != k*7 {
			t.Fatalf("acked write %d lost across concurrent-detector failover (%d, %v)", k, v, ok)
		}
	}
}

// TestSecondRankDefersToPromotedPeer: rank 1's stagger plus its peer check
// must make it stand down once rank 0 has promoted, rather than stacking a
// second (even if epoch-unique) promotion on top.
func TestSecondRankDefersToPromotedPeer(t *testing.T) {
	tr := startTrio(t)

	// Only rank 1 runs a detector; rank 0's follower is promoted manually
	// mid-stagger, simulating rank 0 winning the race.
	o2 := fastOpts(tr.p)
	o2.Rank, o2.Peers = 1, []string{tr.p.follower.Addr().String()}
	d2 := failover.Start(tr.f2Node, o2)
	defer d2.Stop()

	tr.p.proxy.Partition(true)
	if _, err := tr.p.followerNode.PromoteWith(func(cur uint64) uint64 { return cur + 2 }); err != nil {
		t.Fatal(err) // rank 0's residue class (epoch 3, group 2... any newer epoch works)
	}

	deadline := time.Now().Add(5 * time.Second)
	for d2.Promotions() == 0 {
		if role, _ := tr.f2Node.Role(); role != chameleon.RoleFollower {
			t.Fatalf("rank-1 node left the follower role: %v", role)
		}
		if time.Now().After(deadline) {
			return // detector stood down (or is still staggered) — both fine
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rank-1 detector promoted (%d) despite a live promoted peer", d2.Promotions())
}
