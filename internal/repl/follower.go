package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/wal"
)

// errFatal marks a replication error as divergence-class: the follower must
// fail-stop rather than reconnect, because retrying would either loop
// forever or silently fork history.
type errFatal struct{ err error }

func (e *errFatal) Error() string { return e.err.Error() }
func (e *errFatal) Unwrap() error { return e.err }

func fatalf(format string, args ...any) error {
	return &errFatal{err: fmt.Errorf(format, args...)}
}

// dial opens a single-connection wire client to addr. It gives up when ctx
// ends: a promotion waits for the follower loop, which may be dialing.
func dial(ctx context.Context, addr string) (*client.Client, error) {
	return client.DialContext(ctx, addr, client.Options{Conns: 1})
}

// runFollower is the follower's life: dial upstream, pull until the link or
// the protocol fails, reconnect with jittered bounded backoff — forever,
// until promoted, closed, or diverged.
func (n *Node) runFollower(ctx context.Context, done chan struct{}) {
	defer close(done) // passed in: Promote/Close nil the field before waiting on it

	backoff := n.opts.ReconnectMin
	for ctx.Err() == nil {
		c, err := dial(ctx, n.opts.ReplicaOf)
		if err == nil {
			n.connected.Store(true)
			n.opts.Logf("repl: following %s", n.opts.ReplicaOf)
			err = n.shardSyncLoop(ctx, c)
			c.Close() //nolint:errcheck
			n.connected.Store(false)
		}
		if ctx.Err() != nil {
			return
		}
		var fe *errFatal
		if errors.As(err, &fe) {
			n.failStop(fe.err)
			return
		}
		if n.ix.Err() != nil {
			// The local index is closed or poisoned: replication has nothing
			// to apply into. Stop quietly; index health already says why.
			n.opts.Logf("repl: follower stopping, local index unusable: %v", n.ix.Err())
			return
		}
		if err != nil {
			n.opts.Logf("repl: link to %s failed (%v); reconnecting", n.opts.ReplicaOf, err)
		}
		n.reconnects.Add(1)
		t := time.NewTimer(jitteredBackoff(backoff, n.opts.ReconnectMin))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
		if backoff *= 2; backoff > n.opts.ReconnectMax {
			backoff = n.opts.ReconnectMax
		}
	}
}

// adoptEpoch validates and adopts a pulled epoch (grow-only), persisting an
// advance durably BEFORE it takes effect in memory: a persist failure is a
// plain reconnect-class error, and since the in-memory epoch did not move,
// the retry re-attempts the write instead of silently skipping it.
func (n *Node) adoptEpoch(peer uint64) error {
	n.mu.Lock()
	cur, fenced := n.epoch, n.role == chameleon.RoleFenced
	n.mu.Unlock()
	if peer < cur {
		return fatalf("upstream epoch regressed %d -> %d", cur, peer)
	}
	if peer > cur {
		if err := n.persistRepl(peer, fenced); err != nil {
			return fmt.Errorf("repl: persisting adopted epoch %d: %w", peer, err)
		}
		n.mu.Lock()
		if peer > n.epoch {
			n.epoch = peer
		}
		n.mu.Unlock()
	}
	return nil
}

// replClient is the slice of the wire client the follower uses: per-shard
// pulls, per-shard snapshot streams. An interface so repl tests can drive the
// loop without a TCP server.
type replClient interface {
	ReplPull(ctx context.Context, shard int, fromSeq uint64, max int, wait time.Duration, epoch uint64, layout bool) (client.PullResult, error)
	ReplSnap(ctx context.Context, shard int, snapID, offset uint64) (client.SnapChunk, error)
}

// shardSyncLoop drives one connection for every follower, sharded or not (an
// unsharded node is one shard with no bounds): one pull loop per shard over
// the pipelined connection. The first error unwinds them all. A nil return
// means the context ended; a plain error means reconnect; an errFatal means
// divergence fail-stop.
func (n *Node) shardSyncLoop(ctx context.Context, c replClient) error {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, len(n.streams))
	for i := range n.streams {
		go func(i int) { errc <- n.shardPullLoop(sctx, c, i) }(i)
	}
	var first error
	for range n.streams {
		if e := <-errc; e != nil && first == nil {
			first = e
			cancel()
		}
	}
	if ctx.Err() != nil {
		return nil
	}
	return first
}

// shardPullLoop replicates one shard's stream: pull, validate, apply,
// repeat. Its first pull on a connection, and its first after a bootstrap,
// asks for the upstream's layout, so shard counts are checked before any
// record is applied and the bounds a bootstrap's contents were cut by are
// the last ones this shard adopts.
func (n *Node) shardPullLoop(ctx context.Context, c replClient, shard int) error {
	st := n.streams[shard]
	healthy, wantLayout := false, true
	for ctx.Err() == nil {
		n.mu.Lock()
		epoch := n.epoch
		n.mu.Unlock()
		from := n.ix.ShardCommitSeq(shard) + 1
		pctx, cancel := context.WithTimeout(ctx, n.opts.PullWait+5*time.Second)
		pr, err := c.ReplPull(pctx, shard, from, pullMax, n.opts.PullWait, epoch, wantLayout)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		wantLayout = false
		n.lastProgress.Store(time.Now().UnixNano())

		// The upstream's epoch may only grow (a new primary was promoted and
		// the old address now hosts it, or fencing advanced it); a regression
		// means the address is answered by something with amnesia.
		if err := n.adoptEpoch(pr.Epoch); err != nil {
			return err
		}

		// A shard-count mismatch is divergence-class: the processes were
		// configured with different -shards and no amount of retrying
		// converges them. Different bounds of the same count are an upstream
		// re-shard, adopted in place; its new contents arrive as a replace on
		// every shard's own stream.
		if pr.HasLayout {
			if len(pr.Bounds) != len(n.streams)-1 {
				return fatalf("upstream has %d shards, local node has %d: shard counts must match", len(pr.Bounds)+1, len(n.streams))
			}
			if !slices.Equal(pr.Bounds, n.ix.Bounds()) {
				n.opts.Logf("repl: adopting upstream shard bounds %v", pr.Bounds)
				if err := n.ix.AdoptManifest(pr.Bounds); err != nil {
					return fmt.Errorf("repl: adopting upstream shard bounds: %w", err)
				}
			}
		}

		// The upstream's commit clock may only grow, and must never be
		// behind ours: either means committed history vanished upstream.
		if prev := st.upstream.Load(); pr.UpstreamSeq < prev {
			return fatalf("shard %d: upstream commit seq regressed %d -> %d", shard, prev, pr.UpstreamSeq)
		}
		if pr.UpstreamSeq < from-1 {
			return fatalf("shard %d: upstream commit seq %d behind local %d: local history is not a prefix of upstream's", shard, pr.UpstreamSeq, from-1)
		}
		st.upstream.Store(pr.UpstreamSeq)

		if pr.SnapshotNeeded {
			if err := n.bootstrapShard(ctx, c, shard); err != nil {
				return err
			}
			healthy, wantLayout = true, true
			continue
		}
		if len(pr.Recs) > 0 {
			if err := n.ix.ReplicateShardBatch(shard, pr.FirstSeq, pr.Recs); err != nil {
				if errors.Is(err, chameleon.ErrReplDivergence) || errors.Is(err, wal.ErrSeqGap) {
					return fatalf("shard %d: replicated batch at seq %d: %w", shard, pr.FirstSeq, err)
				}
				// Disk or shutdown trouble: reconnect-and-retry is safe
				// because replay is idempotent; a dead index stops the loop
				// in runFollower.
				return err
			}
		}
		if !healthy {
			healthy = true
			n.opts.Logf("repl: shard %d caught up to %s at seq %d (epoch %d)", shard, n.opts.ReplicaOf, pr.UpstreamSeq, pr.Epoch)
		}
	}
	return nil
}

// bootstrapShard streams a full snapshot of one shard from upstream and
// installs it, replacing the shard's local state and jumping its commit
// clock to the snapshot's as-of sequence.
func (n *Node) bootstrapShard(ctx context.Context, c replClient, shard int) error {
	n.opts.Logf("repl: bootstrapping shard %d from snapshot (local seq %d)", shard, n.ix.ShardCommitSeq(shard))
	n.bootstraps.Add(1)
	var buf bytes.Buffer
	var id, offset, asOf uint64
	for {
		cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		ch, err := c.ReplSnap(cctx, shard, id, offset)
		cancel()
		if err != nil {
			return err // transport or expired stream: reconnect restarts fresh
		}
		if id == 0 {
			id, asOf = ch.SnapID, ch.AsOfSeq
		} else if ch.SnapID != id || ch.AsOfSeq != asOf {
			return fmt.Errorf("repl: snapshot stream changed identity mid-read")
		}
		if ch.Offset != offset {
			return fmt.Errorf("repl: snapshot chunk at offset %d, want %d", ch.Offset, offset)
		}
		buf.Write(ch.Data)
		offset += uint64(len(ch.Data))
		n.lastProgress.Store(time.Now().UnixNano())
		if offset >= ch.Total {
			break
		}
		if len(ch.Data) == 0 {
			return fmt.Errorf("repl: empty snapshot chunk before total %d at offset %d", ch.Total, offset)
		}
	}
	if err := n.ix.RestoreShardSnapshot(shard, io.Reader(&buf), asOf); err != nil {
		// A corrupt stream fails validation with the index unchanged —
		// retryable over a fresh connection. A poisoned/closed index is
		// terminal and runFollower stops on it.
		return fmt.Errorf("repl: installing snapshot: %w", err)
	}
	n.opts.Logf("repl: snapshot installed, shard %d commit seq %d", shard, asOf)
	return nil
}

// failStop records divergence permanently: replication halts, health reports
// Diverged (merged state: poisoned), and only operator surgery (wipe and
// re-follow) resumes it. Reads keep serving — the local state is internally
// consistent, just no longer provably a prefix of the primary's.
func (n *Node) failStop(err error) {
	n.mu.Lock()
	if n.divergedErr == nil {
		n.divergedErr = err
	}
	n.mu.Unlock()
	n.opts.Logf("repl: DIVERGENCE, replication fail-stopped: %v", err)
}
