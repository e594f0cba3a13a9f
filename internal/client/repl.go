package client

import (
	"context"
	"math"
	"time"

	"chameleon"
	"chameleon/internal/wal"
	"chameleon/internal/wire"
)

// This file is the replication and read-your-writes call surface: what a
// follower's pull loop uses to stream one shard's committed records off its
// primary (ReplPull/ReplSnap; an unsharded server is shard 0 of one), what
// an operator or failover controller uses to move the primary role
// (Promote/Fence), and what an application uses to read its own writes from
// a follower (WaitSeq/GetAtLeast). The replication ops require a server that
// runs replication; any other server refuses them with a typed malformed
// rejection rather than misbehaving.

// PullResult is one REPL_PULL answer for one shard: Recs are committed
// records carrying the shard's commit sequences FirstSeq, FirstSeq+1, …;
// UpstreamSeq is the shard's commit clock on the primary at reply time
// (lag = UpstreamSeq − last applied); Epoch is the primary's fencing epoch.
// SnapshotNeeded means the requested from-sequence predates the primary's
// record retention and the puller must bootstrap from a snapshot instead.
// When HasLayout is set Bounds carries the primary's boundary array (nil for
// a one-shard layout), which the caller must hold before applying records.
type PullResult struct {
	FirstSeq       uint64
	UpstreamSeq    uint64
	Epoch          uint64
	SnapshotNeeded bool
	Recs           []wal.Record
	Bounds         []uint64
	HasLayout      bool
}

// SnapChunk is one REPL_SNAP answer: Data covers [Offset, Offset+len(Data))
// of a Total-byte snapshot stream SnapID, consistent as of commit sequence
// AsOfSeq.
type SnapChunk struct {
	SnapID  uint64
	AsOfSeq uint64
	Offset  uint64
	Total   uint64
	Data    []byte
}

// clampMS converts a wait duration to the wire's 32-bit millisecond field.
func clampMS(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	ms := d.Milliseconds()
	if ms <= 0 {
		ms = 1
	}
	if ms > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ms)
}

// ReplPull long-polls the server for shard's committed records from commit
// sequence fromSeq onward: up to max records (0 = server default), waiting
// up to wait for new data before returning an empty batch. epoch is the
// highest primary epoch the caller has seen — the server fences itself if
// the caller knows a newer one. layout asks the reply to carry the primary's
// boundary array (HasLayout set); snapshot-needed replies carry it anyway.
// Pulling from fromSeq acknowledges every sequence below it.
func (c *Client) ReplPull(ctx context.Context, shard int, fromSeq uint64, max int, wait time.Duration, epoch uint64, layout bool) (PullResult, error) {
	if max < 0 {
		max = 0
	}
	lim := uint32(math.MaxUint32)
	if uint64(max) <= math.MaxUint32 {
		lim = uint32(max)
	}
	res, err := c.do(ctx, &wire.Request{Op: wire.OpReplPull, Shard: uint32(shard),
		Seq: fromSeq, Limit: lim, WaitMS: clampMS(wait), Epoch: epoch, WantLayout: layout})
	if err != nil {
		return PullResult{}, err
	}
	return PullResult{
		FirstSeq:       res.FirstSeq,
		UpstreamSeq:    res.UpstreamSeq,
		Epoch:          res.Epoch,
		SnapshotNeeded: res.SnapshotNeeded,
		Recs:           res.Recs,
		Bounds:         res.Bounds,
		HasLayout:      res.HasLayout,
	}, nil
}

// ReplSnap reads one chunk of shard's snapshot stream. snapID 0 opens a
// fresh stream (the server snapshots the shard's current state and returns
// the stream's id); subsequent calls pass that id with a growing offset
// until Offset+len(Data) == Total.
func (c *Client) ReplSnap(ctx context.Context, shard int, snapID, offset uint64) (SnapChunk, error) {
	res, err := c.do(ctx, &wire.Request{Op: wire.OpReplSnap, Shard: uint32(shard),
		SnapID: snapID, Seq: offset})
	if err != nil {
		return SnapChunk{}, err
	}
	return SnapChunk{
		SnapID:  res.SnapID,
		AsOfSeq: res.AsOfSeq,
		Offset:  res.Offset,
		Total:   res.Total,
		Data:    res.Snap,
	}, nil
}

// Promote asks the server to become primary (epoch+1, writes accepted). A
// promote of a node that is already primary is a no-op returning its current
// epoch.
func (c *Client) Promote(ctx context.Context) (epoch uint64, role chameleon.ReplRole, err error) {
	res, err := c.do(ctx, &wire.Request{Op: wire.OpPromote})
	if err != nil {
		return 0, chameleon.RoleNone, err
	}
	return res.Epoch, chameleon.ReplRole(res.Role), nil
}

// Fence tells the server a primary with the given epoch exists: if that
// epoch is newer than the server's own, a primary steps down to fenced
// (refusing writes) and a follower adopts the epoch. Returns the server's
// resulting epoch and role.
func (c *Client) Fence(ctx context.Context, epoch uint64) (uint64, chameleon.ReplRole, error) {
	res, err := c.do(ctx, &wire.Request{Op: wire.OpReplFence, Epoch: epoch})
	if err != nil {
		return 0, chameleon.RoleNone, err
	}
	return res.Epoch, chameleon.ReplRole(res.Role), nil
}

// WaitSeq blocks until the server's commit sequence reaches seq (or wait
// elapses server-side, which surfaces as a typed lagging rejection). It
// returns the server's commit sequence at reply time. WaitSeq(ctx, 0, 0) is
// a pure commit-clock read.
func (c *Client) WaitSeq(ctx context.Context, seq uint64, wait time.Duration) (uint64, error) {
	res, err := c.do(ctx, &wire.Request{Op: wire.OpGetSeq, Seq: seq, WaitMS: clampMS(wait)})
	if err != nil {
		return 0, err
	}
	c.noteSeq(res.Seq)
	return res.Seq, nil
}

// GetAtLeast is read-your-writes against a follower: it waits (up to wait)
// for the follower to have applied commit sequence seq — typically the
// caller's LastSeq() from writes against the primary — then performs a plain
// Get. A lagging rejection means the follower could not catch up in time.
func (c *Client) GetAtLeast(ctx context.Context, key, seq uint64, wait time.Duration) (val uint64, found bool, err error) {
	if seq > 0 {
		if _, err := c.WaitSeq(ctx, seq, wait); err != nil {
			return 0, false, err
		}
	}
	return c.Get(ctx, key)
}
