package chameleon

import (
	"fmt"
	"io"
	"slices"

	"chameleon/internal/wal"
)

// This file is the ShardedIndex's replication surface: the per-shard
// projections of the DurableIndex primitives in replseq.go, plus manifest
// adoption so boundary changes ship through the replication stream. Each
// shard is a full DurableIndex with its own commit clock, WAL, and snapshot
// path, so a sharded follower is N independent single-index replication
// streams behind one handle — there is no cross-shard ordering, and none is
// needed: a write's durability story lives entirely within its shard.

// checkShard bounds-checks a shard ordinal from the wire.
func (s *ShardedIndex) checkShard(i int) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("chameleon: shard %d out of range (have %d)", i, len(s.shards))
	}
	return nil
}

// ShardCommitSeq reports shard i's own commit-sequence clock — the per-shard
// replication cursor (CommitSeq sums these; replication pulls each one
// separately).
func (s *ShardedIndex) ShardCommitSeq(i int) uint64 {
	return s.shards[i].CommitSeq()
}

// SetShardCommitHook installs fn as shard i's commit hook, with
// DurableIndex.SetCommitHook's contract: it runs inside the shard's group
// commit, a non-nil return fails the batch's writers, and it must not call
// back into the index.
func (s *ShardedIndex) SetShardCommitHook(i int, fn func(firstSeq uint64, recs []wal.Record) error) {
	s.shards[i].SetCommitHook(fn)
}

// ReplicateShardBatch applies records the upstream's shard i committed as
// sequences [firstSeq, firstSeq+len(recs)-1], with DurableIndex.
// ReplicateBatch's dup-skip/gap-refuse/divergence-refuse semantics.
func (s *ShardedIndex) ReplicateShardBatch(i int, firstSeq uint64, recs []wal.Record) error {
	if err := s.checkShard(i); err != nil {
		return err
	}
	return s.shards[i].ReplicateBatch(firstSeq, recs)
}

// ShardSnapshotAt streams a consistent snapshot of shard i to w and reports
// the shard commit sequence it is as-of.
func (s *ShardedIndex) ShardSnapshotAt(i int, w io.Writer) (asOfSeq uint64, n int64, err error) {
	if err := s.checkShard(i); err != nil {
		return 0, 0, err
	}
	return s.shards[i].SnapshotAt(w)
}

// RestoreShardSnapshot replaces shard i's contents from a snapshot stream
// and adopts asOfSeq as its commit sequence (checkpointing, so the restored
// state is durable on return).
func (s *ShardedIndex) RestoreShardSnapshot(i int, r io.Reader, asOfSeq uint64) error {
	if err := s.checkShard(i); err != nil {
		return err
	}
	return s.shards[i].RestoreSnapshot(r, asOfSeq)
}

// ManifestGen reports the durable layout generation: it increments on every
// boundary rewrite (BulkLoad re-shard, AdoptManifest), so a replication
// stream detects boundary changes by comparing one number.
func (s *ShardedIndex) ManifestGen() uint64 { return s.gen.Load() }

// AdoptManifest installs the upstream's boundary array as this follower's
// layout at generation gen, durably (manifest rewrite with the snapshot
// discipline) and atomically for readers (router pointer swap). The shard
// count is fixed at open time: bounds must describe exactly len(shards)
// partitions. Adoption never moves the generation backward: a stale gen is a
// no-op, so re-delivered manifests are harmless. An EQUAL gen with different
// bounds still adopts — a freshly initialized follower and primary both sit
// at generation 1, possibly with different boundary arrays, and the
// upstream's layout wins.
//
// Adoption changes only the routing layout — shard contents are not
// re-partitioned locally. The caller (the replication state machine) must
// follow adoption by re-bootstrapping every shard from the upstream, because
// a boundary change upstream came from a BulkLoad that rewrote shard
// contents without advancing commit clocks.
func (s *ShardedIndex) AdoptManifest(gen uint64, bounds []uint64) error {
	if err := validateBounds(bounds, len(s.shards)); err != nil {
		return err
	}
	s.manMu.Lock()
	defer s.manMu.Unlock()
	if gen < s.gen.Load() || (gen == s.gen.Load() && slices.Equal(bounds, s.Bounds())) {
		return nil
	}
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	if err := writeShardManifest(s.fs, s.dir, shardManifest{
		Version: 1, Shards: len(s.shards), Bounds: b, Gen: gen,
	}); err != nil {
		return err
	}
	s.rt.Store(newShardRouter(b))
	s.gen.Store(gen)
	return nil
}
