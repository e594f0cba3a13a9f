package core

import (
	"log"
	"math"
	"time"

	"chameleon/internal/dataset"
)

// StartRetrainer launches the background retraining goroutine of Section V.
// It scans the level-h gates every period and retrains the subtrees whose
// update ratio crossed the configured thresholds, holding only that
// interval's Retraining-Lock while it works. Calling it twice or on an index
// without gates is a no-op; concurrent Start/Stop/Close calls are safe.
func (ix *Index) StartRetrainer(period time.Duration) {
	ix.lifecycle.Lock()
	defer ix.lifecycle.Unlock()
	ix.startRetrainerLocked(period)
}

// startRetrainerLocked is StartRetrainer under an already-held lifecycle
// mutex.
func (ix *Index) startRetrainerLocked(period time.Duration) {
	if ix.stop != nil || len(ix.tree.Load().gates) == 0 {
		return
	}
	if period <= 0 {
		period = 10 * time.Second // the paper's evaluation setting
	}
	ix.lastPeriod = period
	ix.stop = make(chan struct{})
	ix.done = make(chan struct{})
	go ix.retrainLoop(period, ix.stop, ix.done)
}

// StopRetrainer halts the background goroutine and waits for it to finish
// any in-flight subtree. It is safe to call when no retrainer runs, and from
// multiple goroutines at once.
func (ix *Index) StopRetrainer() {
	ix.lifecycle.Lock()
	defer ix.lifecycle.Unlock()
	ix.stopRetrainerLocked()
}

// stopRetrainerLocked is StopRetrainer under an already-held lifecycle
// mutex.
func (ix *Index) stopRetrainerLocked() {
	if ix.stop == nil {
		return
	}
	close(ix.stop)
	<-ix.done
	ix.stop, ix.done = nil, nil
}

// PauseRetrainer suspends background maintenance without stopping the
// goroutine: timer-driven retrain passes and threshold-triggered full
// reconstructions are skipped until ResumeRetrainer. The overload layer calls
// this while the durable write queue is saturated, so structural maintenance
// stops competing with foreground writes for interval locks; pausing is a
// cheap atomic flip, safe to call at write-path frequency.
func (ix *Index) PauseRetrainer() { ix.retrainPaused.Store(true) }

// ResumeRetrainer re-enables background maintenance after PauseRetrainer.
func (ix *Index) ResumeRetrainer() { ix.retrainPaused.Store(false) }

// retrainerRunning reports whether the background goroutine is live.
func (ix *Index) retrainerRunning() bool {
	ix.lifecycle.Lock()
	defer ix.lifecycle.Unlock()
	return ix.stop != nil
}

// RetrainStats reports how many subtree retrains have run and the total time
// spent inside Retraining-Locks (the quantity Fig. 14 charts).
func (ix *Index) RetrainStats() (count int64, total time.Duration) {
	return ix.retrains.Load(), time.Duration(ix.retrainNanos.Load())
}

// retrainFailpoint, when non-nil, runs at the top of every guarded retrain
// pass. Tests inject panics through it to exercise the degradation path; it
// must be set before the retrainer starts and cleared only after it stops.
var retrainFailpoint func()

// reconstructFailpoint, when non-nil, runs inside Reconstruct while the
// exclusive rebuild lock is held — tests panic through it to prove the lock
// is released on the way out.
var reconstructFailpoint func()

// maxRetrainBackoffFactor caps the exponential backoff after consecutive
// panicking passes at this multiple of the configured period.
const maxRetrainBackoffFactor = 32

// retrainLoop is the background goroutine of Section V, hardened for
// graceful degradation: a panicking pass (a bug in the fanout policy, a
// cost-model edge case) is recovered and logged, and the next attempt is
// delayed with capped exponential backoff instead of either crashing the
// process or killing the goroutine and silently stopping all maintenance.
// A clean pass resets the cadence.
func (ix *Index) retrainLoop(period time.Duration, stop, done chan struct{}) {
	defer close(done)
	delay := period
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		if ix.guardedRetrainPass() {
			delay = period
		} else {
			delay *= 2
			if limit := maxRetrainBackoffFactor * period; delay > limit {
				delay = limit
			}
			log.Printf("chameleon/core: retraining pass failed; backing off %v (%d panics so far)",
				delay, ix.retrainPanics.Load())
		}
		timer.Reset(delay)
	}
}

// guardedRetrainPass runs one retraining pass under recover(), reporting
// whether it completed without panicking.
func (ix *Index) guardedRetrainPass() (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ix.retrainPanics.Add(1)
			log.Printf("chameleon/core: retraining pass panicked (recovered): %v", r)
			ok = false
		}
	}()
	// Paused (foreground overload): skip the pass entirely. Reported as a
	// clean pass so the loop keeps its normal cadence instead of backing off.
	if ix.retrainPaused.Load() {
		return true
	}
	if retrainFailpoint != nil {
		retrainFailpoint()
	}
	ix.RetrainPass()
	return true
}

// RetrainPass runs one scan over all gates, retraining the drifted subtrees.
// It is exported so the harness can trigger retraining deterministically
// (Fig. 14) in addition to the timer-driven mode (Fig. 15). The pass holds
// the rebuild lock shared, so it runs alongside foreground writers (the
// per-interval locks arbitrate) but never across a structure swap.
func (ix *Index) RetrainPass() int {
	ix.rebuildMu.RLock()
	defer ix.rebuildMu.RUnlock()
	t := ix.tree.Load()
	retrained := 0
	for _, g := range t.gates {
		upd := g.updates.Load()
		if upd == 0 {
			continue
		}
		keys := g.keys.Load()
		if keys < 1 {
			keys = 1
		}
		ratio := float64(upd) / float64(keys)
		switch {
		case ratio >= structThreshold:
			ix.retrainStructural(t, g)
			retrained++
		case ratio >= lightThreshold:
			ix.retrainLight(t, g)
			retrained++
		}
	}
	return retrained
}

// retrainLight rebuilds every EBH leaf under the gate at the Theorem 1
// capacity provisioned for the gate's observed drift rate, without touching
// the subtree shape. No sorting is involved — the property the paper credits
// for Chameleon's low retraining time (Fig. 14) — and the provisioning keeps
// upcoming inserts off the inline-expansion path.
func (ix *Index) retrainLight(t *tree, g *gate) {
	start := time.Now()
	t.locks.LockRetrain(g.id)
	// Deferred unlock: a panic mid-rebuild (recovered in retrainLoop) must
	// not strand the interval locked forever.
	defer t.locks.UnlockRetrain(g.id)
	keys := g.keys.Load()
	if keys < 1 {
		keys = 1
	}
	growth := 1 + float64(g.updates.Load())/float64(keys)
	n := 0
	visit(gateChild(g.parent, g.slot), 0, 0, math.MaxUint64, func(nd *node, _ int) bool {
		if nd.leaf != nil {
			nd.leaf.RetrainFor(int(growth * float64(nd.leaf.Len())))
			n += nd.leaf.Len()
		}
		return true
	})
	g.keys.Store(int64(n))
	g.updates.Store(0)
	ix.retrains.Add(1)
	ix.retrainNanos.Add(time.Since(start).Nanoseconds())
}

// retrainStructural gathers the subtree's entries in key order, re-runs the
// fanout policy (the paper invokes TSMDP here: "we retrain the local
// structure by employing TSMDP as the background thread"), and swaps the
// rebuilt subtree into the parent slot — all under the interval's
// Retraining-Lock, so foreground operations on other intervals proceed
// untouched.
func (ix *Index) retrainStructural(t *tree, g *gate) {
	start := time.Now()
	t.locks.LockRetrain(g.id)
	defer t.locks.UnlockRetrain(g.id)
	var c cut
	c.copy(gateChild(g.parent, g.slot), 0, math.MaxUint64)
	c.sort()
	// Atomic store: optimistic readers load this slot with no lock held
	// (their seqlock validation catches the swap, but the pointer itself
	// must never tear).
	setGateChild(g.parent, g.slot, ix.buildLower(c.ks, c.vs, g.lo, g.hi, t.h, t.h))
	g.keys.Store(int64(len(c.ks)))
	g.updates.Store(0)
	ix.retrains.Add(1)
	ix.retrainNanos.Add(time.Since(start).Nanoseconds())
}

// maybeReconstruct runs a full DARE reconstruction when cumulative updates
// crossed the configured threshold. With concurrent writers many goroutines
// can observe the crossing at once; a CAS flag elects a single rebuilder and
// the others continue — a complete rebuild is the one operation every
// learned index eventually blocks writers for, but it should run once.
func (ix *Index) maybeReconstruct() {
	thr := ix.cfg.ReconstructThreshold
	if thr <= 0 {
		return
	}
	// A full rebuild excludes every writer for its whole collect-to-swap
	// window — the worst possible moment is while the write path is already
	// saturated. Deferred, not skipped: the threshold stays crossed, so the
	// first write after resume retries.
	if ix.retrainPaused.Load() {
		return
	}
	if !ix.thresholdCrossed(thr) {
		return
	}
	if !ix.reconstructing.CompareAndSwap(false, true) {
		return
	}
	defer ix.reconstructing.Store(false)
	// The elected rebuilder runs on a foreground writer goroutine: a panic
	// inside the MARL construction would otherwise tear down the caller's
	// request (or the process). Recover, count it, and carry on serving —
	// the structure is unchanged on failure and the threshold stays crossed,
	// so a later write retries the rebuild.
	defer func() {
		if r := recover(); r != nil {
			ix.retrainPanics.Add(1)
			log.Printf("chameleon/core: full reconstruction panicked (recovered): %v", r)
		}
	}()
	// Re-check: a rebuild may have landed while racing for the flag.
	if ix.thresholdCrossed(thr) {
		ix.Reconstruct()
	}
}

func (ix *Index) thresholdCrossed(thr float64) bool {
	base := ix.baseN.Load()
	if base < 1 {
		base = 1
	}
	return float64(ix.updatesSince.Load()) >= thr*float64(base)
}

// Reconstruct gathers the index's entire contents and rebuilds the structure
// from scratch through the full MARL construction (DARE shaping the upper
// levels again). The retrainer is paused for the duration and restarted with
// its previous period. Writers are excluded from collect to swap (their
// updates would be silently lost otherwise); readers keep serving from the
// pre-swap snapshot, whose contents are identical, and pick up the new root
// on their next operation.
func (ix *Index) Reconstruct() {
	ix.lifecycle.Lock()
	defer ix.lifecycle.Unlock()
	wasActive := ix.stop != nil
	ix.stopRetrainerLocked()
	func() {
		// Closure-scoped exclusive hold with deferred unlock: if the MARL
		// build panics, the caller's recover() must find rebuildMu released,
		// or every future writer deadlocks.
		ix.rebuildMu.Lock()
		defer ix.rebuildMu.Unlock()
		if reconstructFailpoint != nil {
			reconstructFailpoint()
		}
		n := ix.Len()
		ks, vs := ix.AppendPairs(make([]uint64, 0, n), make([]uint64, 0, n))
		nt := ix.buildTree(ks, vs, reconstructSample)
		ix.installTree(nt, len(ks))
	}()
	ix.reconstructions.Add(1)
	if wasActive {
		ix.startRetrainerLocked(ix.lastPeriod)
	}
}

// Reconstructions reports how many full rebuilds have run.
func (ix *Index) Reconstructions() int { return int(ix.reconstructions.Load()) }

// driftedGates counts gates whose update ratio currently exceeds the light
// threshold.
func (ix *Index) driftedGates() int {
	n := 0
	for _, g := range ix.tree.Load().gates {
		keys := g.keys.Load()
		if keys < 1 {
			keys = 1
		}
		if float64(g.updates.Load())/float64(keys) >= lightThreshold {
			n++
		}
	}
	return n
}

// LocalSkewness recomputes the lsn statistic over the index's current
// contents (Definition 3); exported for observability. It reads the keys as
// Range does, so it is safe while the retrainer and writers run.
func (ix *Index) LocalSkewness() float64 {
	ks := make([]uint64, 0, ix.Len())
	ix.Range(0, math.MaxUint64, func(k, _ uint64) bool {
		ks = append(ks, k)
		return true
	})
	return dataset.LocalSkewness(ks)
}
