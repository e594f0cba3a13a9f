package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/dataset"
	"chameleon/internal/index"
)

// TestRetrainerSurvivesPanics injects panics into the background retraining
// pass and verifies graceful degradation: the goroutine recovers, counts the
// failure, backs off, and — once the fault clears — resumes retraining. The
// interval locks must come back released, so foreground writes keep working
// throughout and afterwards.
func TestRetrainerSurvivesPanics(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 30_000, 5)
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}

	const faults = 3
	var calls atomic.Int64
	retrainFailpoint = func() {
		if calls.Add(1) <= faults {
			panic("injected retrain fault")
		}
	}
	ix.StartRetrainer(time.Millisecond)

	// Dirty some gates so post-fault passes have real work to do. FACE keys
	// are dense, so key+1 may already exist — duplicates are fine.
	for i := 0; i < len(keys); i += 2 {
		if err := ix.Insert(keys[i]+1, 1); err != nil && !errors.Is(err, index.ErrDuplicateKey) {
			t.Fatal(err)
		}
	}

	deadline := time.After(30 * time.Second)
	for ix.retrainPanics.Load() < faults || calls.Load() <= faults {
		select {
		case <-deadline:
			t.Fatalf("retrainer did not recover: %d panics, %d passes",
				ix.retrainPanics.Load(), calls.Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if !ix.retrainerRunning() {
		t.Fatal("retrainer goroutine died")
	}

	ix.StopRetrainer()
	retrainFailpoint = nil

	// Every interval lock must be free again: a manual pass over all gates
	// acquires each Retraining-Lock and would deadlock on a stranded one.
	for i := 0; i < len(keys); i += 3 {
		if err := ix.Insert(keys[i]+2, 2); err != nil && !errors.Is(err, index.ErrDuplicateKey) {
			t.Fatal(err)
		}
	}
	ix.RetrainPass()
	if _, ok := ix.Lookup(keys[0]); !ok {
		t.Fatal("index unusable after recovered panics")
	}
}

// TestReconstructPanicReleasesLocks panics inside Reconstruct while the
// exclusive rebuild lock is held. The elected rebuilder's recover() must find
// rebuildMu released — a stranded lock would deadlock every later writer —
// and a later attempt (fault cleared) must complete a real reconstruction.
func TestReconstructPanicReleasesLocks(t *testing.T) {
	ix := fastIndex("Chameleon")
	ix.cfg.ReconstructThreshold = 0.5
	if err := ix.BulkLoad(dataset.Uniform(5_000, 3), nil); err != nil {
		t.Fatal(err)
	}

	var armed atomic.Bool
	armed.Store(true)
	reconstructFailpoint = func() {
		if armed.Load() {
			panic("injected reconstruct fault")
		}
	}
	defer func() { reconstructFailpoint = nil }()

	// Cross the threshold: the elected writer's reconstruction panics and is
	// recovered; the insert itself must still succeed.
	k := uint64(1 << 33)
	for ix.retrainPanics.Load() == 0 {
		if err := ix.Insert(k, k); err != nil && !errors.Is(err, index.ErrDuplicateKey) {
			t.Fatal(err)
		}
		k++
	}
	if got := ix.Reconstructions(); got != 0 {
		t.Fatalf("Reconstructions = %d during fault injection", got)
	}

	// The lock must be free: plain writes proceed, and with the fault
	// cleared the still-crossed threshold retries the rebuild and succeeds.
	armed.Store(false)
	for ix.Reconstructions() == 0 {
		if err := ix.Insert(k, k); err != nil && !errors.Is(err, index.ErrDuplicateKey) {
			t.Fatal(err)
		}
		k++
	}
	if _, ok := ix.Lookup(k - 1); !ok {
		t.Fatal("key lost across recovered reconstruction")
	}
}

// TestPauseRetrainerSkipsPasses pins the overload contract: while paused, the
// background loop runs no retrain work (the failpoint would record it), keeps
// its normal cadence (no backoff), and resumes doing real passes after
// ResumeRetrainer.
func TestPauseRetrainerSkipsPasses(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 30_000, 5)
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	retrainFailpoint = func() { calls.Add(1) }
	defer func() { retrainFailpoint = nil }()

	ix.PauseRetrainer()
	if !ix.retrainPaused.Load() {
		t.Fatal("RetrainerPaused = false after Pause")
	}
	ix.StartRetrainer(time.Millisecond)
	defer ix.StopRetrainer()
	time.Sleep(30 * time.Millisecond)
	if n := calls.Load(); n != 0 {
		t.Fatalf("paused retrainer ran %d passes, want 0", n)
	}

	ix.ResumeRetrainer()
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retrainer never resumed after ResumeRetrainer")
		}
		time.Sleep(time.Millisecond)
	}
}
