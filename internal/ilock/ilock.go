// Package ilock implements the Interval Lock of Definition 4, graduated from
// the paper's binary query/retrain lock to a reader-shared, writer-exclusive
// lock so many foreground goroutines can serve lookups concurrently. The lock
// is keyed by the path ID of a level-h node: because Chameleon's sibling
// intervals never overlap and inner-node routing is exact (Eq. 1), comparing
// IDs replaces interval-overlap checks entirely, which is what makes the lock
// cheap enough to sit on the query path.
//
// Each interval is a single atomic uint64 word split in two halves:
//
//	bits  0..31  state (as int32):  0 free, >0 reader count,
//	                                -1 one exclusive writer (LockWrite),
//	                                -2 the background retrainer (LockRetrain)
//	bits 32..63  sequence counter, incremented once per EXCLUSIVE acquire
//
// Readers share; a writer or the retrainer excludes everyone. The sequence
// half is what makes versioned optimistic reads possible (the BLI seqlock
// recipe): ReadBegin snapshots the sequence while the state half is
// non-exclusive, the caller probes the leaf with plain/atomic loads and no
// lock traffic, and ReadValidate confirms the sequence is unchanged — any
// writer or retrain that could have mutated the interval in between must have
// bumped it on acquire. Shared readers do not bump the sequence (they mutate
// nothing), so optimistic readers and locked readers coexist freely.
//
// Acquisition is a CAS loop with a bounded active spin before yielding via
// runtime.Gosched, so short critical sections (a leaf probe) resolve without
// a scheduler trip while long ones (a subtree rebuild) don't burn a core.
//
// Slots are padded to a cache line so optimistic readers of one hot interval
// never share a line with writers of a neighboring interval (false sharing is
// exactly the word-bouncing this path exists to eliminate).
package ilock

import (
	"runtime"
	"sync/atomic"
)

// Lock states, stored in the low 32 bits of the slot word. Positive values
// count readers.
const (
	free       int32 = 0
	writerLock int32 = -1
	retrainer  int32 = -2
)

// spinLimit bounds the active CAS spin before yielding to the scheduler.
const spinLimit = 64

// seqOne is the increment that bumps the sequence half without touching the
// state half.
const seqOne = uint64(1) << 32

// slot is one interval's lock word, padded out to a 64-byte cache line so
// adjacent hot intervals never false-share.
type slot struct {
	w atomic.Uint64
	_ [56]byte
}

func stateOf(w uint64) int32 { return int32(uint32(w)) }
func seqOf(w uint64) uint32  { return uint32(w >> 32) }

// withState replaces the state half of w, keeping the sequence half.
func withState(w uint64, s int32) uint64 {
	return (w &^ 0xFFFFFFFF) | uint64(uint32(s))
}

// Table holds one lock per interval ID. IDs at or beyond the table length
// share a slot by modulo — exclusion still holds, with a small chance of
// false conflict; size the table with New(n) for n distinct IDs to avoid it.
// Core enforces that invariant structurally: every tree snapshot installs a
// table sized len(gates)+1, so distinct live intervals never alias.
type Table struct {
	slots []slot
}

// New creates a table for n interval IDs (minimum 1).
func New(n int) *Table {
	if n < 1 {
		n = 1
	}
	return &Table{slots: make([]slot, n)}
}

// Len reports the number of distinct lock slots.
func (t *Table) Len() int { return len(t.slots) }

func (t *Table) slot(id uint64) *atomic.Uint64 {
	return &t.slots[id%uint64(len(t.slots))].w
}

// LockRead acquires shared read access to the interval: any number of
// readers may hold it together, waiting only for an exclusive writer or an
// in-progress retrain of the same interval to finish. Shared acquisition
// leaves the sequence half untouched.
func (t *Table) LockRead(id uint64) {
	s := t.slot(id)
	for spins := 0; ; spins++ {
		// Incrementing the whole word bumps only the state half while the
		// state is a non-negative reader count (no carry into the sequence
		// half below 2^31 concurrent readers).
		if w := s.Load(); stateOf(w) >= 0 && s.CompareAndSwap(w, w+1) {
			return
		}
		if spins >= spinLimit {
			runtime.Gosched()
			spins = 0
		}
	}
}

// UnlockRead releases a shared hold taken with LockRead.
func (t *Table) UnlockRead(id uint64) {
	// Subtracting 1 from the word decrements the state half; with at least
	// one reader holding, the low half is >= 1, so no borrow crosses into
	// the sequence half.
	t.slot(id).Add(^uint64(0))
}

// LockWrite acquires exclusive write access to the interval, waiting for all
// readers and any retrain to drain. The acquire bumps the sequence half,
// invalidating every optimistic read begun before it.
func (t *Table) LockWrite(id uint64) {
	s := t.slot(id)
	for spins := 0; ; spins++ {
		if w := s.Load(); stateOf(w) == free &&
			s.CompareAndSwap(w, withState(w, writerLock)+seqOne) {
			return
		}
		if spins >= spinLimit {
			runtime.Gosched()
			spins = 0
		}
	}
}

// UnlockWrite releases an exclusive hold taken with LockWrite. The sequence
// half is preserved — one bump per acquire is enough, because validation only
// checks that no exclusive acquire happened since ReadBegin.
func (t *Table) UnlockWrite(id uint64) {
	s := t.slot(id)
	// Only the exclusive holder transitions out of -1, and reader/writer CAS
	// attempts all fail while the state is negative, so a load+store pair is
	// race-free here.
	s.Store(withState(s.Load(), free))
}

// TryLockRetrain attempts to acquire the Retraining-Lock without waiting.
// It reports false when the interval is being accessed — the "access request
// is denied" outcome of the Section V walkthrough; the retrainer then waits
// for the foreground threads and retries. A successful acquire bumps the
// sequence half, just like LockWrite.
func (t *Table) TryLockRetrain(id uint64) bool {
	s := t.slot(id)
	w := s.Load()
	return stateOf(w) == free && s.CompareAndSwap(w, withState(w, retrainer)+seqOne)
}

// LockRetrain acquires the Retraining-Lock, yielding until every foreground
// goroutine has left the interval.
func (t *Table) LockRetrain(id uint64) {
	for spins := 0; ; spins++ {
		if t.TryLockRetrain(id) {
			return
		}
		if spins >= spinLimit {
			runtime.Gosched()
			spins = 0
		}
	}
}

// UnlockRetrain releases a Retraining-Lock.
func (t *Table) UnlockRetrain(id uint64) {
	s := t.slot(id)
	s.Store(withState(s.Load(), free))
}

// ReadBegin opens a versioned optimistic read of the interval: it returns the
// current sequence number and whether the interval is stable (no exclusive
// holder). When ok is false the caller must not probe — a writer or retrain
// is mutating the interval right now — and should retry or fall back to
// LockRead. When ok is true the caller may probe the interval's data with no
// further lock traffic, then confirm the probe with ReadValidate.
func (t *Table) ReadBegin(id uint64) (ver uint32, ok bool) {
	w := t.slot(id).Load()
	return seqOf(w), stateOf(w) >= 0
}

// ReadValidate reports whether an optimistic read that began at sequence ver
// observed a quiescent interval: true means no writer or retrainer acquired
// the interval between ReadBegin and now, so every value read in between is
// consistent. On false the caller must discard what it read and retry (or
// fall back to the shared lock).
//
// Correctness leans on Go's sequentially consistent atomics: an exclusive
// holder bumps the sequence on acquire, before any store it makes to interval
// data, so if a probe observed any of those stores the bump is visible here
// and the sequence comparison fails.
func (t *Table) ReadValidate(id uint64, ver uint32) bool {
	w := t.slot(id).Load()
	return seqOf(w) == ver && stateOf(w) >= 0
}
