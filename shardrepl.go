package chameleon

import (
	"fmt"
	"io"
	"slices"

	"chameleon/internal/wal"
)

// This file is the ShardedIndex's replication surface: the per-shard
// projections of the DurableIndex primitives in replseq.go, plus adoption of
// the upstream's boundary array, which rides the replication stream. Each
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

// AdoptManifest installs the upstream's boundary array as this follower's
// layout, durably (manifest rewrite with the snapshot discipline) and
// atomically for readers (router pointer swap); bounds equal to the local
// ones are a no-op. The shard count is fixed at open time: bounds must
// describe exactly len(shards) partitions.
//
// Adoption changes only the routing layout — shard contents are not
// re-partitioned locally. They need not be: an upstream re-shard is a
// replace on every shard, so each shard's own stream carries its new
// contents (a snapshot bootstrap).
func (s *ShardedIndex) AdoptManifest(bounds []uint64) error {
	if err := validateBounds(bounds, len(s.shards)); err != nil {
		return err
	}
	if slices.Equal(bounds, s.rt.Load().bounds) {
		return nil
	}
	return s.setLayout(slices.Clone(bounds))
}

// setLayout commits bounds as the layout: the manifest rewrite first, then
// the router swap.
func (s *ShardedIndex) setLayout(bounds []uint64) error {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	if err := writeShardManifest(s.fs, s.dir, shardManifest{
		Version: 1, Shards: len(s.shards), Bounds: bounds,
	}); err != nil {
		return err
	}
	s.rt.Store(newShardRouter(bounds))
	return nil
}
