// Package repl is the replication state machine that sits between a durable
// index and the wire protocol. One Node lives in every replication-enabled
// server process and plays one role at a time:
//
//   - Primary: every committed group-commit batch enters a bounded in-memory
//     record ring (via the index's commit hook); followers long-poll the ring
//     through ServeShardPull, and a pull *from* sequence S acknowledges every
//     sequence below S. With SemiSync on, the commit hook blocks the batch's
//     acks until a follower has acknowledged it (or AckTimeout passes, which
//     surfaces chameleon.ErrReplicaLagging — the documented ambiguous-fate
//     exception: the write IS durable locally but unconfirmed remotely).
//   - Follower: a background loop pulls from the upstream address, applies
//     batches through the index's ordered replay path (idempotent under
//     re-delivery), bootstraps from a streamed snapshot when it is too far
//     behind the ring, and reconnects with jittered backoff when the link
//     fails. Any divergence — a sequence gap, an apply conflict, an upstream
//     whose epoch or commit clock moves backwards — is fail-stop: replication
//     halts permanently and health reports Diverged, because continuing past
//     divergence silently forks history.
//   - Fenced: a deposed primary. Fencing is epoch-based: Promote increments
//     the epoch, and any node that learns of a higher epoch than its own
//     steps down and refuses writes (AllowWrites false → the server rejects
//     with chameleon.ErrNotPrimary). Epochs, not timeouts, are the
//     correctness mechanism; the best-effort fence RPC after promotion just
//     shortens the window. Epoch and fencing verdict are persisted (the
//     repl.meta sidecar) before they take effect, so a deposed primary that
//     restarts stays fenced instead of resurrecting at a stale epoch.
//
// Streams: a Node drives one replication stream per shard — per-shard rings
// on the primary, per-shard pull loops on the follower — with ONE role and
// ONE epoch for the whole node (split-brain is a node-level property; shards
// fail over together). An unsharded node is a one-shard node with no bounds;
// there is no separate unsharded path. A replace (BulkLoad) is a commit on
// its shard's clock that the ring cannot carry: the ring restarts past it, so
// a follower crosses it only by a snapshot bootstrap. A re-shard is a replace
// on every shard, so only the boundary array must travel besides: it rides a
// shard's first pull on each connection and every snapshot-needed reply, and
// a follower adopts different bounds in place. A follower whose shard count
// differs from the primary's fail-stops.
//
// Topology is a star (v1): followers replicate from one primary; chained
// followers are not supported (a follower answers ServeShardPull with
// snapshot-needed only). Lock order: the index's internal lock is acquired
// OUTSIDE Node.mu (the commit hook arrives holding it and takes Node.mu), so
// Node methods must never call into the index while holding Node.mu — in
// particular repl.meta persistence happens after Node.mu is released.
package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"chameleon"
	"chameleon/internal/wal"
)

// ErrFencedNode is returned by Promote on a fenced node: a deposed primary's
// history may have diverged from the new primary's, so re-promoting it
// requires operator surgery (wipe and re-follow), not an RPC.
var ErrFencedNode = errors.New("repl: node is fenced; wipe and re-follow before promoting")

// ErrUnknownSnapshot is returned by ServeShardSnap for an expired or
// never-opened stream id; the puller restarts its bootstrap with a fresh
// stream.
var ErrUnknownSnapshot = errors.New("repl: unknown or expired snapshot stream")

// ErrNodeClosed is returned by operations on a closed Node.
var ErrNodeClosed = errors.New("repl: node closed")

// pullMax caps records per pull reply; followers ask for exactly this many.
const pullMax = 4096

// promoteDrainWait bounds how long a promotion waits for the follower pull
// loop to stop. The loop can be inside an index call that takes no context;
// the longest is RestoreShardSnapshot, which took 0.44 s on a 2 M-key shard
// (legacy engine, which bulk-loads the run; tiered 0.11 s; 2-vCPU x86 VM,
// local SSD). The bound leaves an order of magnitude for a loaded box or a
// slower disk.
const promoteDrainWait = 5 * time.Second

// Options tunes a Node. The zero value plus defaults gives an async primary.
type Options struct {
	// ReplicaOf is the upstream address to follow; empty starts the node as
	// primary.
	ReplicaOf string
	// SemiSync makes the primary block each commit's acks until a follower
	// has acknowledged the batch (or AckTimeout). Off = async replication:
	// writes never wait, a failover may lose the tail.
	SemiSync bool
	// AckTimeout bounds a semi-sync wait (default 2s); on expiry the write
	// errors with chameleon.ErrReplicaLagging but remains locally durable.
	AckTimeout time.Duration
	// PullWait is the follower's long-poll duration (default 1s); it doubles
	// as the heartbeat interval, since even an empty pull proves the link.
	PullWait time.Duration
	// ReconnectMin/ReconnectMax bound the follower's jittered redial backoff
	// (defaults 50ms and 2s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Logf, when set, receives replication lifecycle events.
	Logf func(format string, args ...any)

	// ringCap is how many committed records the primary retains for pull
	// catch-up, per shard (65536; tests shrink it); a follower further
	// behind bootstraps from a snapshot.
	ringCap int
	// snapChunk is the snapshot-stream chunk size in bytes (256KiB; tests
	// shrink it).
	snapChunk int
	// stallAfter is the health threshold, 2×PullWait — two missed
	// heartbeats: a primary with unacked semi-sync commits and no pull for
	// this long, or a follower with no successful pull for this long,
	// reports Stalled.
	stallAfter time.Duration
}

func (o Options) withDefaults() Options {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 2 * time.Second
	}
	if o.ringCap <= 0 {
		o.ringCap = 65536
	}
	if o.PullWait <= 0 {
		o.PullWait = time.Second
	}
	if o.snapChunk <= 0 {
		o.snapChunk = 256 << 10
	}
	o.stallAfter = 2 * o.PullWait
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 50 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// replIndex is the slice of a durable index the state machine drives: one
// commit clock, hook, replay path, and snapshot stream per shard, plus the
// boundary array and the persisted role sidecar. An unsharded DurableIndex
// fits through the soloIndex adapter (one shard, no bounds); a ShardedIndex
// implements it directly. Bounds is a lock-free read, so it may be called
// under Node.mu.
type replIndex interface {
	Shards() int
	ShardCommitSeq(i int) uint64
	SetShardCommitHook(i int, fn func(firstSeq uint64, recs []wal.Record) error)
	ReplicateShardBatch(i int, firstSeq uint64, recs []wal.Record) error
	ShardSnapshotAt(i int, w io.Writer) (asOfSeq uint64, n int64, err error)
	RestoreShardSnapshot(i int, r io.Reader, asOfSeq uint64) error
	Bounds() []uint64
	AdoptManifest(bounds []uint64) error
	LoadReplState() (epoch uint64, fenced bool)
	SaveReplState(epoch uint64, fenced bool) error
	CommitSeq() uint64
	Err() error
}

// soloIndex adapts an unsharded DurableIndex to the one-shard view.
type soloIndex struct{ d *chameleon.DurableIndex }

func (s soloIndex) Shards() int                  { return 1 }
func (s soloIndex) ShardCommitSeq(int) uint64    { return s.d.CommitSeq() }
func (s soloIndex) Bounds() []uint64             { return nil }
func (s soloIndex) AdoptManifest([]uint64) error { return nil }
func (s soloIndex) CommitSeq() uint64            { return s.d.CommitSeq() }
func (s soloIndex) Err() error                   { return s.d.Err() }
func (s soloIndex) SetShardCommitHook(_ int, fn func(uint64, []wal.Record) error) {
	s.d.SetCommitHook(fn)
}
func (s soloIndex) ReplicateShardBatch(_ int, firstSeq uint64, recs []wal.Record) error {
	return s.d.ReplicateBatch(firstSeq, recs)
}
func (s soloIndex) ShardSnapshotAt(_ int, w io.Writer) (uint64, int64, error) {
	return s.d.SnapshotAt(w)
}
func (s soloIndex) RestoreShardSnapshot(_ int, r io.Reader, asOfSeq uint64) error {
	return s.d.RestoreSnapshot(r, asOfSeq)
}
func (s soloIndex) LoadReplState() (uint64, bool)        { return s.d.LoadReplState() }
func (s soloIndex) SaveReplState(e uint64, f bool) error { return s.d.SaveReplState(e, f) }

// snapshot is one cached snapshot stream the primary serves chunks from.
type snapshot struct {
	id    uint64
	shard int
	asOf  uint64
	data  []byte
}

// shardStream is one shard's replication state: the primary-side pull ring
// and ack cursor, the snapshot-stream LRU, and the follower-side upstream
// clock. Ring fields are guarded by Node.mu.
type shardStream struct {
	baseSeq  uint64        // commit seq of the last record NOT in ring
	ring     []wal.Record  // ring[i] carries seq baseSeq+1+i
	ackedSeq uint64        // highest seq acknowledged by any follower pull
	dataCh   chan struct{} // closed+replaced when the ring grows
	snapIDs  []uint64      // open stream ids, oldest first (LRU of 2)
	upstream atomic.Uint64 // follower: upstream clock as of the last pull
}

// Node is a server's replication controller. Safe for concurrent use.
type Node struct {
	ix   replIndex
	opts Options

	mu       sync.Mutex
	closed   bool
	role     chameleon.ReplRole
	epoch    uint64
	streams  []*shardStream
	lastPull time.Time     // primary-side stall clock (any shard)
	ackCh    chan struct{} // closed+replaced when any ackedSeq advances
	snaps    map[uint64]*snapshot
	nextSnap uint64

	// persistMu serializes repl.meta writes and guards the persisted-state
	// mirror; it is taken with Node.mu NOT held (the sidecar write is an
	// index call).
	persistMu       sync.Mutex
	persistedEpoch  uint64
	persistedFenced bool

	// Follower-loop state (see follower.go).
	cancel       context.CancelFunc
	done         chan struct{}
	divergedErr  error // set once; fail-stop
	connected    atomic.Bool
	reconnects   atomic.Uint64
	bootstraps   atomic.Uint64
	lastProgress atomic.Int64 // unixnano of the last successful pull
}

// New wires a Node to an unsharded index — a one-shard node — and starts it
// in its configured role. A follower's pull loop starts immediately; stop it
// with Close or Promote. A persisted fenced verdict (repl.meta) overrides the
// configured role: a restarted deposed primary stays fenced. The follower's
// upstream must be unsharded too; a sharded one fail-stops it.
func New(ix *chameleon.DurableIndex, opts Options) *Node {
	return newNode(soloIndex{ix}, opts)
}

// NewSharded wires a Node to a sharded index: one replication stream per
// shard behind one role and one epoch. The follower's upstream must be a
// sharded primary with the same shard count.
func NewSharded(ix *chameleon.ShardedIndex, opts Options) *Node {
	return newNode(ix, opts)
}

func newNode(ix replIndex, opts Options) *Node {
	n := &Node{
		ix:    ix,
		opts:  opts.withDefaults(),
		ackCh: make(chan struct{}),
		snaps: make(map[uint64]*snapshot),
	}
	n.streams = make([]*shardStream, ix.Shards())
	for i := range n.streams {
		n.streams[i] = &shardStream{dataCh: make(chan struct{})}
	}
	n.lastProgress.Store(time.Now().UnixNano())

	epoch, fenced := ix.LoadReplState()
	n.persistedEpoch, n.persistedFenced = epoch, fenced
	switch {
	case fenced:
		// The durable verdict wins over flags: a deposed primary restarted
		// with its old -repl (or even -replica-of) comes back fenced.
		n.role = chameleon.RoleFenced
		n.epoch = epoch
		n.opts.Logf("repl: starting fenced at epoch %d (persisted verdict); writes refused", epoch)
	case n.opts.ReplicaOf == "":
		n.role = chameleon.RolePrimary
		if epoch == 0 {
			epoch = 1
		}
		n.epoch = epoch
		for i, st := range n.streams {
			st.baseSeq = ix.ShardCommitSeq(i)
			ix.SetShardCommitHook(i, n.commitHook(i))
		}
		// Startup has no caller to fail into; the in-memory epoch still
		// governs, and the next transition retries the write.
		n.persistRepl(epoch, false) //nolint:errcheck
	default:
		n.role = chameleon.RoleFollower
		n.epoch = epoch
		ctx, cancel := context.WithCancel(context.Background())
		n.cancel = cancel
		n.done = make(chan struct{})
		go n.runFollower(ctx, n.done)
	}
	return n
}

// persistRepl durably records (epoch, fenced) via the index's repl.meta
// sidecar if it is newer than what is already persisted. Never called with
// Node.mu held (lock order: index locks outside Node.mu). A write failure
// propagates to the caller: a transition that must be durable before it
// takes effect (promotion, fencing, epoch adoption) aborts or surfaces it —
// the persisted mirror stays behind, so the next transition retries.
func (n *Node) persistRepl(epoch uint64, fenced bool) error {
	n.persistMu.Lock()
	defer n.persistMu.Unlock()
	if epoch < n.persistedEpoch ||
		(epoch == n.persistedEpoch && (fenced == n.persistedFenced || n.persistedFenced)) {
		return nil // never regress, never un-fence at the same epoch
	}
	if err := n.ix.SaveReplState(epoch, fenced); err != nil {
		n.opts.Logf("repl: persisting epoch %d (fenced=%v) failed: %v", epoch, fenced, err)
		return err
	}
	n.persistedEpoch, n.persistedFenced = epoch, fenced
	return nil
}

// Role reports the node's current role and fencing epoch.
func (n *Node) Role() (chameleon.ReplRole, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role, n.epoch
}

// AllowWrites reports whether the server should accept mutations: only a
// primary may write; followers and fenced ex-primaries reject with
// chameleon.ErrNotPrimary.
func (n *Node) AllowWrites() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == chameleon.RolePrimary
}

// commitHook builds shard's commit hook: it runs under the index lock after
// a batch is durable and applied, appends the batch to the shard's pull
// ring, and (semi-sync) waits for a follower ack. An empty batch is a replace
// at firstSeq: the ring restarts past it, so every follower crosses it by a
// snapshot bootstrap, and nothing waits for an ack (the bootstrap needs the
// index lock this hook runs under).
func (n *Node) commitHook(shard int) func(uint64, []wal.Record) error {
	return func(firstSeq uint64, recs []wal.Record) error {
		st := n.streams[shard]
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return nil
		}
		if len(recs) == 0 {
			st.ring = st.ring[:0]
			st.baseSeq = firstSeq
			close(st.dataCh)
			st.dataCh = make(chan struct{})
			n.mu.Unlock()
			return nil
		}
		if expect := st.baseSeq + uint64(len(st.ring)) + 1; firstSeq != expect {
			// A batch committed outside the ring's view (the promote window, or
			// a hook re-install). Drop the ring and restart it at this batch:
			// followers needing the gap fall back to snapshot bootstrap — a
			// slower path, never a silent loss.
			st.ring = st.ring[:0]
			st.baseSeq = firstSeq - 1
		}
		st.ring = append(st.ring, recs...)
		if over := len(st.ring) - n.opts.ringCap; over > 0 {
			st.baseSeq += uint64(over)
			st.ring = append(st.ring[:0], st.ring[over:]...)
		}
		close(st.dataCh)
		st.dataCh = make(chan struct{})
		semiSync := n.opts.SemiSync && n.role == chameleon.RolePrimary
		last := firstSeq + uint64(len(recs)) - 1
		n.mu.Unlock()
		if !semiSync {
			return nil
		}
		return n.waitAcked(shard, last)
	}
}

// waitAcked blocks until a follower has acknowledged seq on shard,
// AckTimeout passes (ErrReplicaLagging), or the node closes (nil: shutdown
// must not fail locally durable writes).
func (n *Node) waitAcked(shard int, seq uint64) error {
	st := n.streams[shard]
	deadline := time.Now().Add(n.opts.AckTimeout)
	for {
		n.mu.Lock()
		if n.closed || st.ackedSeq >= seq {
			n.mu.Unlock()
			return nil
		}
		ch := n.ackCh
		n.mu.Unlock()
		d := time.Until(deadline)
		if d <= 0 {
			return fmt.Errorf("%w: commit seq %d unacknowledged after %v",
				chameleon.ErrReplicaLagging, seq, n.opts.AckTimeout)
		}
		t := time.NewTimer(d)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

// PullReply is ServeShardPull's answer; field semantics match
// client.PullResult. Bounds is set only when HasLayout.
type PullReply struct {
	FirstSeq       uint64
	Recs           []wal.Record
	UpstreamSeq    uint64
	Epoch          uint64
	SnapshotNeeded bool
	Bounds         []uint64
	HasLayout      bool
}

// maybeFence applies a strictly newer peer epoch and persists the verdict
// before the caller proceeds — a pull or fence RPC carrying a newer epoch
// must depose this node durably, not just in memory. The in-memory fence
// applies even when persistence fails (refusing writes is the safe
// direction); the error tells the caller durability was NOT achieved, so a
// restart could resurrect the node at the stale epoch until a later
// transition retries the write.
func (n *Node) maybeFence(peerEpoch uint64) error {
	n.mu.Lock()
	if peerEpoch <= n.epoch {
		n.mu.Unlock()
		return nil
	}
	n.fenceLocked(peerEpoch)
	epoch, fenced := n.epoch, n.role == chameleon.RoleFenced
	n.mu.Unlock()
	if err := n.persistRepl(epoch, fenced); err != nil {
		return fmt.Errorf("repl: fenced in memory at epoch %d but persisting the verdict failed: %w", epoch, err)
	}
	return nil
}

// ServeShardPull answers one REPL_PULL against shard's stream: records from
// fromSeq (bounded by max), long-polling up to wait when the puller is
// caught up. peerEpoch is the highest primary epoch the puller knows —
// learning of a newer one fences this node (durably). The reply carries the
// boundary array when the puller asks for it (wantLayout), when it is
// snapshot-needed, and for a shard this node does not have (then with
// nothing else, so a puller with more shards than the primary detects the
// mismatch instead of retrying). The bounds are read as the reply is built,
// so a pull parked across a re-shard answers with the new ones. Pulling from
// fromSeq acknowledges every sequence below it.
func (n *Node) ServeShardPull(ctx context.Context, shard int, fromSeq uint64, max int, wait time.Duration, peerEpoch uint64, wantLayout bool) (PullReply, error) {
	if err := n.maybeFence(peerEpoch); err != nil {
		// The fence stands in memory but is not durable; refuse the pull so
		// the puller retries (and this path retries the persist) rather than
		// serving records under an unrecorded epoch.
		return PullReply{}, err
	}
	if shard < 0 || shard >= len(n.streams) {
		_, epoch := n.Role()
		return PullReply{Epoch: epoch, Bounds: n.ix.Bounds(), HasLayout: true}, nil
	}
	if fromSeq == 0 {
		fromSeq = 1
	}
	if max <= 0 || max > pullMax {
		max = pullMax
	}
	deadline := time.Now().Add(wait)
	st := n.streams[shard]
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return PullReply{}, ErrNodeClosed
	}
	if ack := fromSeq - 1; ack > st.ackedSeq {
		st.ackedSeq = ack
		close(n.ackCh)
		n.ackCh = make(chan struct{})
	}
	n.lastPull = time.Now()
	for {
		last := st.baseSeq + uint64(len(st.ring))
		reply := PullReply{UpstreamSeq: last, Epoch: n.epoch}
		switch {
		case fromSeq <= st.baseSeq:
			// The requested records predate ring retention or a replace (or
			// this node is a follower, whose ring is never fed): bootstrap
			// instead.
			reply.SnapshotNeeded = true
			reply.Bounds, reply.HasLayout = n.ix.Bounds(), true
			return reply, nil
		case fromSeq <= last:
			count := int(last - fromSeq + 1)
			if count > max {
				count = max
			}
			i := int(fromSeq - st.baseSeq - 1)
			reply.FirstSeq = fromSeq
			reply.Recs = append([]wal.Record(nil), st.ring[i:i+count]...)
		default:
			// Caught up (or the puller claims records we do not have — its
			// problem to detect via UpstreamSeq): long-poll for new data.
			if !time.Now().After(deadline) && ctx.Err() == nil {
				ch := st.dataCh
				n.mu.Unlock()
				t := time.NewTimer(time.Until(deadline))
				select {
				case <-ch:
					t.Stop()
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
				}
				n.mu.Lock()
				if n.closed {
					return PullReply{}, ErrNodeClosed
				}
				continue
			}
		}
		if wantLayout {
			reply.Bounds, reply.HasLayout = n.ix.Bounds(), true
		}
		return reply, nil
	}
}

// SnapReply is ServeShardSnap's answer; field semantics match
// client.SnapChunk.
type SnapReply struct {
	SnapID  uint64
	AsOfSeq uint64
	Offset  uint64
	Total   uint64
	Data    []byte
}

// ServeShardSnap answers one REPL_SNAP chunk request against shard. snapID 0
// opens a fresh stream — the node snapshots the shard's current state into
// memory and serves it chunk by chunk; each shard's two most recent streams
// stay cached so a concurrent second bootstrapper does not thrash.
func (n *Node) ServeShardSnap(shard int, snapID, offset uint64) (SnapReply, error) {
	if shard < 0 || shard >= len(n.streams) {
		return SnapReply{}, fmt.Errorf("repl: shard %d out of range (node has %d)", shard, len(n.streams))
	}
	if snapID == 0 {
		var buf bytes.Buffer
		// Index call first: the index lock must never be taken under n.mu.
		asOf, _, err := n.ix.ShardSnapshotAt(shard, &buf)
		if err != nil {
			return SnapReply{}, err
		}
		st := n.streams[shard]
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return SnapReply{}, ErrNodeClosed
		}
		n.nextSnap++
		s := &snapshot{id: n.nextSnap, shard: shard, asOf: asOf, data: buf.Bytes()}
		n.snaps[s.id] = s
		st.snapIDs = append(st.snapIDs, s.id)
		for len(st.snapIDs) > 2 {
			delete(n.snaps, st.snapIDs[0])
			st.snapIDs = st.snapIDs[1:]
		}
		n.mu.Unlock()
		return n.chunk(s, offset)
	}
	n.mu.Lock()
	s := n.snaps[snapID]
	n.mu.Unlock()
	if s == nil || s.shard != shard {
		return SnapReply{}, fmt.Errorf("%w: id %d (shard %d)", ErrUnknownSnapshot, snapID, shard)
	}
	return n.chunk(s, offset)
}

func (n *Node) chunk(s *snapshot, offset uint64) (SnapReply, error) {
	total := uint64(len(s.data))
	if offset > total {
		return SnapReply{}, fmt.Errorf("%w: offset %d past total %d", ErrUnknownSnapshot, offset, total)
	}
	end := offset + uint64(n.opts.snapChunk)
	if end > total {
		end = total
	}
	return SnapReply{SnapID: s.id, AsOfSeq: s.asOf, Offset: offset, Total: total,
		Data: s.data[offset:end]}, nil
}

// Promote turns a follower into the primary: the pull loop stops, the epoch
// advances past the old primary's (persisted before the role flips, so a
// crash cannot resurrect the pre-promotion state), writes open up, and a
// best-effort fence RPC tells the old upstream it is deposed (epochs carried
// on every pull are the real protection — the RPC only shortens the window).
// Promoting a primary is a no-op; promoting a fenced or diverged node is
// refused, and a promotion whose epoch cannot be durably recorded fails with
// the node resuming as a follower.
func (n *Node) Promote() (uint64, error) { return n.PromoteWith(nil) }

// PromoteWith is Promote with a caller-supplied epoch-claim function: next
// maps the node's current epoch to the epoch to claim and must return a
// strictly greater value (claims that do not advance are bumped to cur+1).
// The failure detector passes a rank-unique claim (epoch ≡ rank mod group)
// so concurrent detectors on sibling followers can never claim the same
// epoch. nil claims cur+1.
//
// The claim is re-evaluated under the final lock: if a concurrent fence or
// pull adoption advanced the node's epoch past the claimed value while the
// pull loop was draining, the claim is recomputed against the newer epoch
// and re-persisted — the node never becomes primary at an epoch another
// primary already reached.
func (n *Node) PromoteWith(next func(cur uint64) uint64) (uint64, error) {
	if next == nil {
		next = func(cur uint64) uint64 { return cur + 1 }
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return 0, ErrNodeClosed
	}
	switch n.role {
	case chameleon.RolePrimary:
		e := n.epoch
		n.mu.Unlock()
		return e, nil
	case chameleon.RoleFenced:
		n.mu.Unlock()
		return 0, ErrFencedNode
	}
	if n.divergedErr != nil {
		err := n.divergedErr
		n.mu.Unlock()
		return 0, fmt.Errorf("refusing to promote a diverged follower: %w", err)
	}
	cancel, done := n.cancel, n.done
	n.cancel, n.done = nil, nil
	n.mu.Unlock()

	// Stop the pull loop and wait it out so no replicated batch lands after
	// the role flip. The loop may sit in an index call that takes no context
	// (a snapshot restore): past promoteDrainWait, give up, still a
	// follower, and hand the loop back so Close and a retried Promote wait
	// on it.
	if cancel != nil {
		cancel()
	}
	if done != nil {
		select {
		case <-done:
		case <-time.After(promoteDrainWait):
			n.mu.Lock()
			n.cancel, n.done = cancel, done
			n.mu.Unlock()
			return 0, fmt.Errorf("repl: refusing to promote: stopping the pull loop took longer than %v", promoteDrainWait)
		}
	}

	// Seed each ring at its shard's commit clock, then install the hooks
	// (index calls, so outside n.mu). A batch slipping between the two
	// misses its ring; the hook's resync path degrades that to snapshot
	// bootstrap.
	seqs := make([]uint64, len(n.streams))
	for i := range n.streams {
		seqs[i] = n.ix.ShardCommitSeq(i)
	}
	for i := range n.streams {
		n.ix.SetShardCommitHook(i, n.commitHook(i))
	}

	// Claim, persist, verify: the new epoch is durable BEFORE the first
	// write is accepted at it (a crash right after an acked write must
	// restart into epoch ≥ the one that acked it), and the role flips only
	// while the claim is still strictly ahead of the node's epoch — a
	// concurrent Fence or pull adoption in the window forces a re-claim.
	var epoch uint64
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return 0, ErrNodeClosed
		}
		if n.role == chameleon.RolePrimary { // lost a concurrent-promote race
			e := n.epoch
			n.mu.Unlock()
			return e, nil
		}
		cur := n.epoch
		n.mu.Unlock()

		epoch = next(cur)
		if epoch <= cur {
			epoch = cur + 1
		}
		if err := n.persistRepl(epoch, false); err != nil {
			n.resumeFollower()
			return 0, fmt.Errorf("repl: refusing to promote: persisting epoch %d failed: %w", epoch, err)
		}

		n.mu.Lock()
		if n.epoch >= epoch {
			// A fence or adoption reached epoch first; claim again above it.
			n.mu.Unlock()
			continue
		}
		break // mu held
	}
	n.epoch = epoch
	n.role = chameleon.RolePrimary
	for i, st := range n.streams {
		st.baseSeq = seqs[i]
		st.ring = st.ring[:0]
	}
	upstream := n.opts.ReplicaOf
	n.mu.Unlock()

	n.opts.Logf("repl: promoted to primary, epoch %d (commit seq %d)", epoch, n.ix.CommitSeq())
	go n.fenceUpstream(upstream, epoch)
	return epoch, nil
}

// resumeFollower unwinds a half-done promotion after a persistence failure:
// the commit hooks detach and the pull loop restarts, leaving the node a
// plain follower again.
func (n *Node) resumeFollower() {
	for i := range n.streams {
		n.ix.SetShardCommitHook(i, nil)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.role != chameleon.RoleFollower || n.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.done = make(chan struct{})
	go n.runFollower(ctx, n.done)
}

// fenceUpstream best-effort tells the old primary it is deposed.
func (n *Node) fenceUpstream(addr string, epoch uint64) {
	if addr == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c, err := dial(ctx, addr)
	if err != nil {
		n.opts.Logf("repl: fence of old primary %s undeliverable: %v", addr, err)
		return
	}
	defer c.Close() //nolint:errcheck
	if _, _, err := c.Fence(ctx, epoch); err != nil {
		n.opts.Logf("repl: fence of old primary %s failed: %v", addr, err)
		return
	}
	n.opts.Logf("repl: old primary %s fenced at epoch %d", addr, epoch)
}

// Fence delivers a fencing token: if epoch is newer than the node's own, a
// primary steps down to fenced (durably) and a follower adopts the epoch.
// Returns the node's resulting epoch and role (the caller learns both
// outcomes). A non-nil error means the fence took effect in memory but
// could not be durably recorded — the fencing caller must not treat the
// deposition as surviving a restart.
func (n *Node) Fence(epoch uint64) (uint64, chameleon.ReplRole, error) {
	err := n.maybeFence(epoch)
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch, n.role, err
}

// fenceLocked applies a strictly newer epoch under n.mu. Callers persist the
// transition via persistRepl after releasing the lock (maybeFence does
// both).
func (n *Node) fenceLocked(epoch uint64) {
	n.epoch = epoch
	if n.role == chameleon.RolePrimary {
		n.role = chameleon.RoleFenced
		// Release any semi-sync waiters: their writes are locally durable
		// and the new primary's history will include them iff they were
		// pulled, which is exactly what the ack wait was measuring. Waking
		// them via ackCh would falsely ack, so leave them to time out.
		n.opts.Logf("repl: fenced by epoch %d — writes refused", epoch)
	}
}

// Health snapshots replication health for the merged STATS surface.
// ShardLags carries the per-shard staleness vector, one entry per shard
// (follower: upstream clock − applied; primary: ring head − acked).
func (n *Node) Health() chameleon.ReplHealth {
	// Index calls outside n.mu.
	applied := n.ix.CommitSeq()
	shardApplied := make([]uint64, len(n.streams))
	for i := range shardApplied {
		shardApplied[i] = n.ix.ShardCommitSeq(i)
	}
	now := time.Now()
	n.mu.Lock()
	var acked uint64
	for _, st := range n.streams {
		acked += st.ackedSeq
	}
	h := chameleon.ReplHealth{
		Role:               n.role,
		Epoch:              n.epoch,
		AckedSeq:           acked,
		Reconnects:         n.reconnects.Load(),
		SnapshotBootstraps: n.bootstraps.Load(),
		Diverged:           n.divergedErr != nil,
		ShardLags:          make([]uint64, len(n.streams)),
	}
	switch n.role {
	case chameleon.RolePrimary, chameleon.RoleFenced:
		h.LastApplied = applied
		h.UpstreamSeq = applied
		var lag uint64
		for i, st := range n.streams {
			if last := st.baseSeq + uint64(len(st.ring)); last > st.ackedSeq {
				h.ShardLags[i] = last - st.ackedSeq
				lag += h.ShardLags[i]
			}
		}
		if n.opts.SemiSync && n.role == chameleon.RolePrimary && lag > 0 {
			h.Lag = lag
			ref := n.lastPull
			h.Stalled = ref.IsZero() || now.Sub(ref) > n.opts.stallAfter
		}
		h.Connected = !n.lastPull.IsZero() && now.Sub(n.lastPull) <= n.opts.stallAfter
	case chameleon.RoleFollower:
		h.LastApplied = applied
		for i, st := range n.streams {
			u := st.upstream.Load()
			h.UpstreamSeq += u
			if u > shardApplied[i] {
				h.ShardLags[i] = u - shardApplied[i]
			}
		}
		if h.UpstreamSeq > applied {
			h.Lag = h.UpstreamSeq - applied
		}
		h.Connected = n.connected.Load()
		h.Stalled = now.Sub(time.Unix(0, n.lastProgress.Load())) > n.opts.stallAfter
	}
	n.mu.Unlock()
	return h
}

// LastProgress reports when the follower's pull loop last made progress —
// the stall clock the failure detector reads.
func (n *Node) LastProgress() time.Time {
	return time.Unix(0, n.lastProgress.Load())
}

// Upstream reports the address this node follows ("" for a primary).
func (n *Node) Upstream() string { return n.opts.ReplicaOf }

// Close stops the node: the follower loop exits, the commit hooks detach,
// and semi-sync waiters release (their writes are locally durable).
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	cancel, done := n.cancel, n.done
	n.cancel, n.done = nil, nil
	close(n.ackCh)
	n.ackCh = make(chan struct{})
	for _, st := range n.streams {
		close(st.dataCh)
		st.dataCh = make(chan struct{})
	}
	n.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		<-done
	}
	for i := range n.streams {
		n.ix.SetShardCommitHook(i, nil)
	}
}

// jitteredBackoff draws a full-jitter delay in [min, min+rand(cur-min+1)],
// used by the follower's reconnect loop.
func jitteredBackoff(cur, min time.Duration) time.Duration {
	if cur <= min {
		return min
	}
	return min + time.Duration(rand.Int64N(int64(cur-min)+1))
}
