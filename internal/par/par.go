// Package par is the shared bounded worker pool behind every parallel path
// in the repository: MARL bulk load and structural retraining fan subtrees
// out through it, the construction search scores its candidates through
// it, and benchmarks scale it with -cpu. It exists because those paths nest (a
// parallel upper-level build spawns parallel lower-level builds), and naive
// per-call goroutine fan-out either oversubscribes the machine or — with a
// fixed-size pool whose workers block on subtasks — deadlocks.
//
// The design avoids both: Do always runs work on the calling goroutine and
// only *borrows* extra workers from a global token bucket sized by
// GOMAXPROCS. A nested Do that finds no tokens free simply runs inline, so
// progress never depends on another task finishing, and the total number of
// borrowed goroutines across all concurrent calls stays bounded by the core
// count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// tokens is the global bound on borrowed worker goroutines. Sized at startup;
// Do additionally caps helpers per call with its workers argument, so a
// GOMAXPROCS raise mid-process only leaves the bucket conservative.
var tokens = make(chan struct{}, runtime.NumCPU()+runtime.GOMAXPROCS(0))

// Workers resolves a worker-count knob: n > 0 is taken as is, anything else
// means "one per available CPU".
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Do runs fn(0) … fn(n−1), using up to workers goroutines including the
// caller. fn calls are disjoint by index and unordered across goroutines;
// callers own any cross-index synchronization. Do returns when every call
// has finished. A panic in any fn is re-raised on the calling goroutine
// after the remaining workers drain, so deferred cleanup in callers runs
// exactly as in the serial case.
//
// workers <= 1 (or n <= 1) runs everything inline with no goroutines and no
// synchronization — the serial path is the parallel path configured down,
// which is what makes determinism tests between the two meaningful.
func Do(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64
		panicked atomic.Pointer[panicValue]
		wg       sync.WaitGroup
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || panicked.Load() != nil {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicked.CompareAndSwap(nil, &panicValue{r})
					}
				}()
				fn(i)
			}()
		}
	}

	// Borrow helpers without blocking: whatever the bucket has free, up to
	// workers−1. Zero free tokens degrades to the inline path.
	for h := 0; h < workers-1; h++ {
		select {
		case tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-tokens; wg.Done() }()
				work()
			}()
		default:
			h = workers // no tokens free; stop trying
		}
	}
	work() // the caller always participates — nested calls cannot deadlock
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.v)
	}
}

// panicValue boxes a recovered panic for the atomic handoff back to the
// calling goroutine (nil interfaces cannot be distinguished from "no panic").
type panicValue struct{ v any }
