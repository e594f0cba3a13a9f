package wire

// StatsReply is the JSON document a STATS response carries: the durable
// index's Health surface (DESIGN.md §9) plus the server's own connection
// and request counters. The server marshals it, `chameleon-serve -stats`
// prints it as one line, and the serving load generator parses it — one
// schema, so operators and benchmarks read the same numbers.
type StatsReply struct {
	// State is the durable index's health state string (ok,
	// degraded-read-only, poisoned, closed); Err explains any non-ok state.
	State string `json:"state"`
	Err   string `json:"err,omitempty"`

	// Len and WALBytes size the index: live keys and the write-ahead log's
	// replay debt (including admitted-but-uncommitted mutations).
	Len      int   `json:"len"`
	WALBytes int64 `json:"wal_bytes"`

	// Group-commit queue counters, cumulative since OpenDir (see
	// chameleon.Health for exact semantics).
	QueueDepth      int    `json:"queue_depth"`
	QueueHighWater  int    `json:"queue_high_water"`
	ShedOps         uint64 `json:"shed_ops"`
	CancelledOps    uint64 `json:"cancelled_ops"`
	Batches         uint64 `json:"batches"`
	BatchedOps      uint64 `json:"batched_ops"`
	MaxBatch        int    `json:"max_batch"`
	DiskFullBatches uint64 `json:"disk_full_batches"`
	// Server-side coalescing: GetBatches counts multi-GET handler runs,
	// BatchedGets the GETs they carried; WriteBatches counts INSERT/DELETE
	// runs of two or more, BatchedWrites the writes they carried. Omitted
	// when zero.
	GetBatches    uint64   `json:"get_batches,omitempty"`
	BatchedGets   uint64   `json:"batched_gets,omitempty"`
	WriteBatches  uint64   `json:"write_batches,omitempty"`
	BatchedWrites uint64   `json:"batched_writes,omitempty"`
	FsyncHist     []uint64 `json:"fsync_hist"`
	FsyncBounds   []string `json:"fsync_bounds"`
	RetrainPauses uint64   `json:"retrain_pauses"`
	RetrainPaused bool     `json:"retrain_paused"`

	// Sharding: Shards is the number of range partitions behind the served
	// handle (0 when unsharded) and ShardStates each partition's health state
	// string, in shard order. The top-level counters above are the
	// scatter-gather aggregate across shards.
	Shards      int      `json:"shards,omitempty"`
	ShardStates []string `json:"shard_states,omitempty"`

	// Replication: role/epoch locate the node in the topology (absent when
	// replication is not configured); CommitSeq is the node's commit clock;
	// the repl_* gauges mirror chameleon.ReplHealth (lag and last-applied on
	// a follower, acked-seq on a primary). ReplState is the merged
	// worst-wins state (MergeReplHealth) — the one field to alarm on.
	ReplRole               string `json:"repl_role,omitempty"`
	ReplEpoch              uint64 `json:"repl_epoch,omitempty"`
	ReplState              string `json:"repl_state,omitempty"`
	CommitSeq              uint64 `json:"commit_seq,omitempty"`
	ReplLastApplied        uint64 `json:"repl_last_applied,omitempty"`
	ReplUpstreamSeq        uint64 `json:"repl_upstream_seq,omitempty"`
	ReplLag                uint64 `json:"repl_lag,omitempty"`
	ReplAckedSeq           uint64 `json:"repl_acked_seq,omitempty"`
	ReplConnected          bool   `json:"repl_connected,omitempty"`
	ReplReconnects         uint64 `json:"repl_reconnects,omitempty"`
	ReplSnapshotBootstraps uint64 `json:"repl_snapshot_bootstraps,omitempty"`
	ReplStalled            bool   `json:"repl_stalled,omitempty"`
	ReplDiverged           bool   `json:"repl_diverged,omitempty"`
	// ReplShardLagSeqs is the per-shard lag vector, one entry per shard (one
	// on an unsharded node): on a follower upstream seq minus last applied,
	// on a primary ring head minus acked, in shard order.
	ReplShardLagSeqs []uint64 `json:"repl_shard_lag_seqs,omitempty"`

	// Tier is the tiered-storage snapshot (segment counts, flush/compaction
	// counters, cold-read telemetry); absent in legacy checkpoint mode. On a
	// sharded node it is the cross-shard aggregate.
	Tier *TierStats `json:"tier,omitempty"`

	// Server-side counters: current and lifetime connections, requests by
	// outcome, current in-flight requests, and drain status.
	Conns      int     `json:"conns"`
	TotalConns uint64  `json:"total_conns"`
	Requests   uint64  `json:"requests"`
	ReqErrors  uint64  `json:"req_errors"`
	InFlight   int     `json:"in_flight"`
	Draining   bool    `json:"draining"`
	UptimeSec  float64 `json:"uptime_sec"`
}

// TierStats mirrors chameleon.TierHealth onto the STATS wire schema (see
// that type for field semantics).
type TierStats struct {
	Segments     int   `json:"segments"`
	L0Segments   int   `json:"l0_segments"`
	SegmentBytes int64 `json:"segment_bytes"`

	LiveKeys     int64 `json:"live_keys"`
	MemtableKeys int   `json:"memtable_keys"`
	DeadKeys     int   `json:"dead_keys"`
	FrozenKeys   int   `json:"frozen_keys,omitempty"`

	FlushedSeq uint64 `json:"flushed_seq"`
	Gen        uint64 `json:"gen"`

	Flushes      uint64 `json:"flushes"`
	FlushErrs    uint64 `json:"flush_errs,omitempty"`
	Compactions  uint64 `json:"compactions"`
	CompactErrs  uint64 `json:"compact_errs,omitempty"`
	FlushedBytes uint64 `json:"flushed_bytes"`
	CompactBytes uint64 `json:"compact_bytes"`

	LastFlushMicros   int64 `json:"last_flush_us,omitempty"`
	LastCompactMicros int64 `json:"last_compact_us,omitempty"`

	ColdReads    uint64 `json:"cold_reads"`
	ColdReadErrs uint64 `json:"cold_read_errs,omitempty"`

	LastFlushErr string `json:"last_flush_err,omitempty"`
}
