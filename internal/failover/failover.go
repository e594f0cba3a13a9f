// Package failover is the operator-free promotion path: a Detector runs
// beside every follower's replication node, watches the primary, and
// promotes the follower when the primary is dead — no SIGUSR1, no human in
// the loop.
//
// Deciding "dead" is the whole problem, and the detector is deliberately
// conservative, requiring BOTH signals before acting:
//
//  1. The replication pull has stalled: the node's last-progress clock is
//     older than SuspectAfter. A healthy-but-quiet primary still answers
//     long-polls (empty pulls count as progress), so a stall means the link
//     is not delivering — but says nothing about whose fault that is.
//  2. Direct probes of the primary fail Probes consecutive times: the
//     detector dials a fresh connection and PINGs on every probe interval
//     while suspicion lasts. One successful probe resets the count —
//     hysteresis, so a flapping link must stay bad for the full window
//     rather than accumulate old grudges.
//
// Requiring both keeps the failure modes honest: a stalled pull with a
// reachable primary (slow disk, paused retrainer, an asymmetric partition
// that breaks only the pull path) does NOT promote — a live primary with a
// lagging follower must never gain a second primary, because a promotion the
// old primary never learns about is a split brain. A reachable-but-deposed
// primary is the failover client's problem, not the detector's.
//
// When the verdict is death, the sequence is catch-up-then-fence: the pull
// loop has been draining the primary the whole time (by declaration time
// there is nothing left to pull from a dead peer), the detector best-effort
// delivers a REPL_FENCE at the epoch it is about to claim (shortening the
// split-brain window if the primary is actually alive-but-unpullable), then
// promotes the local node — which persists the new epoch durably BEFORE
// accepting the first write, and repeats the fence itself. Correctness never
// rests on the fence RPCs landing: epochs carried on every pull and probe
// fence a resurrected primary the moment any newer-epoch peer talks to it.
//
// Several followers may run detectors against the same primary, and the
// scheme stays split-brain-free because epoch claims are made UNIQUE by
// construction: each detector is configured with a Rank in a group of
// Group detectors (Group = len(Peers)+1) and only ever claims epochs
// congruent to its rank modulo the group size, so two detectors can never
// claim the same epoch — an equal-epoch dual primary is impossible, and
// highest-epoch-wins fencing resolves any overlap. Three further layers
// shrink the overlap window to nearly nothing: ranks act staggered (each
// rank waits Rank extra probe windows before declaring death, so rank 0
// normally wins alone), a detector checks its sibling followers right
// before promoting and stands down if one already claims primary at its own
// epoch or a newer one, and a successful promotion best-effort fences every
// sibling at the new epoch so a lower-epoch rival steps down at once.
package failover

import (
	"context"
	"sync/atomic"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/repl"
)

// Options tunes a Detector. The zero value works for a node with default
// replication options.
type Options struct {
	// Upstream is the primary address to probe; defaults to the node's own
	// replica-of address.
	Upstream string
	// SuspectAfter is how stale the node's pull-progress clock must be
	// before the detector starts counting probe failures (default 2s). Keep
	// it well above the pull long-poll interval, or a healthy idle link
	// looks suspicious.
	SuspectAfter time.Duration
	// ProbeInterval is the detector's tick (default 500ms). It also bounds
	// each dial, PING probe and fence.
	ProbeInterval time.Duration
	// Probes is how many consecutive failed probes (while stalled) declare
	// the primary dead (default 3). With the defaults, failover triggers
	// roughly SuspectAfter + Probes×ProbeInterval ≈ 3.5s after the primary
	// stops answering.
	Probes int
	// Rank orders concurrent detectors. When several followers run
	// detectors against the same primary, each MUST get a distinct Rank in
	// [0, len(Peers)+1): the detector only claims epochs congruent to Rank
	// modulo the group size, so two detectors can never claim the same
	// epoch — the equal-epoch split brain is impossible by construction.
	// Rank also staggers action: each rank waits Rank extra probe windows
	// (Probes×ProbeInterval each) after its own death verdict before
	// promoting, so rank 0 normally wins alone. Default 0.
	Rank int
	// Peers are the OTHER detector-enabled followers' addresses (not the
	// primary, not this node). The group size for epoch claims is
	// len(Peers)+1. Right before promoting, the detector probes each peer
	// and stands down if one already claims primary at this node's epoch or
	// a newer one; after promoting, it best-effort fences every peer at the
	// new epoch.
	Peers []string
	// OnPromoted, when set, is called after a successful automatic promotion
	// with the new epoch, how long the primary had been silent when death
	// was declared, and how long the promotion itself took.
	OnPromoted func(epoch uint64, silence, promote time.Duration)
	// Logf, when set, receives detector lifecycle events.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults(node *repl.Node) Options {
	if o.Upstream == "" {
		o.Upstream = node.Upstream()
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 2 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.Probes <= 0 {
		o.Probes = 3
	}
	if o.Rank < 0 {
		o.Rank = 0
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// group is the epoch-claim modulus: this detector plus its peers. A Rank
// configured past the peer count still gets a safe (if sparse) residue
// class of its own.
func (o Options) group() uint64 {
	g := len(o.Peers) + 1
	if o.Rank+1 > g {
		g = o.Rank + 1
	}
	return uint64(g)
}

// claimEpoch maps the node's current epoch to this detector's next claim:
// the smallest epoch strictly greater than cur that is congruent to Rank
// modulo the group size. Distinct ranks claim disjoint residue classes, so
// no two detectors ever claim the same epoch.
func (o Options) claimEpoch(cur uint64) uint64 {
	g, r := o.group(), uint64(o.Rank)
	e := cur + 1
	if m := e % g; m != r {
		e += (r + g - m) % g
	}
	return e
}

// Detector watches one follower's primary and promotes on death. Create
// with Start, dispose with Stop.
type Detector struct {
	node       *repl.Node
	opts       Options
	cancel     context.CancelFunc
	done       chan struct{}
	promotions atomic.Uint64
}

// Start begins watching. The detector retires on its own after promoting,
// after the node leaves the follower role by other means, or after the node
// diverges (a diverged follower must never become primary: its history is
// not a prefix of the true one).
func Start(node *repl.Node, opts Options) *Detector {
	d := &Detector{node: node, opts: opts.withDefaults(node)}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.done = make(chan struct{})
	go d.run(ctx)
	return d
}

// dial opens a one-connection client for a probe; it gives up when ctx
// ends.
func (d *Detector) dial(ctx context.Context, addr string) (*client.Client, error) {
	return client.DialContext(ctx, addr, client.Options{Conns: 1, DialTimeout: d.opts.ProbeInterval})
}

// Stop halts the detector and waits for its loop to exit.
func (d *Detector) Stop() {
	d.cancel()
	<-d.done
}

func (d *Detector) run(ctx context.Context) {
	defer close(d.done)
	fails := 0
	tick := time.NewTicker(d.opts.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if role, _ := d.node.Role(); role != chameleon.RoleFollower {
			d.opts.Logf("failover: node is %v, detector retiring", role)
			return
		}
		if d.node.Health().Diverged {
			d.opts.Logf("failover: node diverged; never promoting — detector retiring")
			return
		}
		silence := time.Since(d.node.LastProgress())
		if silence < d.opts.SuspectAfter {
			fails = 0
			continue
		}
		if d.probe(ctx) {
			// The primary answers even though the pull is stalled: whatever is
			// wrong (slow pulls, an asymmetric partition), it is not a dead
			// primary, and promoting beside a live one is a split brain.
			fails = 0
			continue
		}
		fails++
		// Rank staggers action: each rank waits Rank extra full probe
		// windows past its own death verdict, so rank 0 normally promotes
		// alone and higher ranks only act when everyone ahead of them is
		// dead too (the probes keep running the whole time — a primary that
		// comes back resets the count).
		threshold := d.opts.Probes * (1 + d.opts.Rank)
		d.opts.Logf("failover: primary %s silent %v, probe %d/%d failed",
			d.opts.Upstream, silence.Round(time.Millisecond), fails, threshold)
		if fails < threshold {
			continue
		}
		if d.failover(ctx, silence) {
			return
		}
		// Transient failure (an undeliverable persist, a lost race that left
		// the node a follower): keep watching — the loop-top role and
		// divergence checks retire the detector if the node moved on.
		fails = 0
	}
}

// probe dials the primary fresh and PINGs it; true means alive. A fresh
// connection per probe, deliberately: a cached one could be the single
// broken path while the server is fine.
func (d *Detector) probe(ctx context.Context) bool {
	c, err := d.dial(ctx, d.opts.Upstream)
	if err != nil {
		return false
	}
	defer c.Close() //nolint:errcheck
	pctx, cancel := context.WithTimeout(ctx, d.opts.ProbeInterval)
	defer cancel()
	return c.Ping(pctx) == nil
}

// failover runs the catch-up-then-fence sequence; false means the attempt
// did not promote and the caller should keep watching. Catch-up is already
// done: the pull loop drained the primary until it died. The pre-promotion
// fence is best-effort and expected to fail against a dead peer.
func (d *Detector) failover(ctx context.Context, silence time.Duration) bool {
	// A sibling may already have won while this rank waited out its
	// stagger: a peer claiming primary at this node's epoch or a newer one
	// means the failover already happened, and promoting beside it would start a (transient,
	// epoch-resolved, but pointless) rivalry. Retire instead; re-pointing
	// this follower at the winner is the operator's move.
	if addr, peerEpoch, ok := d.peerPromoted(ctx); ok {
		d.opts.Logf("failover: peer %s already promoted at epoch %d; standing down", addr, peerEpoch)
		return true
	}
	_, epoch := d.node.Role()
	claim := d.opts.claimEpoch(epoch)
	d.opts.Logf("failover: declaring primary %s dead (silent %v); fencing and promoting (claiming epoch %d)",
		d.opts.Upstream, silence.Round(time.Millisecond), claim)
	if c, err := d.dial(ctx, d.opts.Upstream); err == nil {
		fctx, cancel := context.WithTimeout(ctx, d.opts.ProbeInterval)
		c.Fence(fctx, claim) //nolint:errcheck
		cancel()
		c.Close() //nolint:errcheck
	}
	start := time.Now()
	newEpoch, err := d.node.PromoteWith(d.opts.claimEpoch)
	if err != nil {
		// Lost a race (another path promoted/fenced the node), divergence
		// surfaced at the last moment, or the epoch could not be persisted
		// (the node resumed following). The caller decides whether to keep
		// watching.
		d.opts.Logf("failover: promotion failed: %v", err)
		return false
	}
	took := time.Since(start)
	d.promotions.Add(1)
	d.opts.Logf("failover: promoted to primary at epoch %d (silence %v, promotion %v)",
		newEpoch, silence.Round(time.Millisecond), took.Round(time.Millisecond))
	// Fence the sibling followers too: a lower-epoch rival that somehow
	// promoted concurrently steps down the moment this lands, and plain
	// followers just adopt the epoch. Best-effort — unique claims plus
	// highest-epoch-wins resolution are the correctness mechanism.
	for _, addr := range d.opts.Peers {
		if c, err := d.dial(ctx, addr); err == nil {
			fctx, cancel := context.WithTimeout(ctx, d.opts.ProbeInterval)
			c.Fence(fctx, newEpoch) //nolint:errcheck
			cancel()
			c.Close() //nolint:errcheck
		}
	}
	if d.opts.OnPromoted != nil {
		d.opts.OnPromoted(newEpoch, silence, took)
	}
	return true
}

// peerPromoted sweeps the sibling followers for one that already claims the
// primary role at this node's epoch or a newer one. An equal epoch counts:
// a winning sibling fences every peer at the epoch it claimed, so by the
// time this node looks, it has usually adopted the winner's epoch already.
func (d *Detector) peerPromoted(ctx context.Context) (addr string, epoch uint64, ok bool) {
	_, cur := d.node.Role()
	for _, peer := range d.opts.Peers {
		c, err := d.dial(ctx, peer)
		if err != nil {
			continue
		}
		role, e := c.ServerRole(), c.ServerEpoch()
		c.Close() //nolint:errcheck
		if role == chameleon.RolePrimary && e >= cur {
			return peer, e, true
		}
	}
	return "", 0, false
}
