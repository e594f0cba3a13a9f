package core

import (
	"sync"
	"testing"
	"time"

	"chameleon/internal/dataset"
	"chameleon/internal/rl"
)

// TestConcurrentSoak drives readers, writers, and range scans against the
// index while the background retrainer churns with a tiny period and a full
// Reconstruct fires mid-soak. Each writer owns a disjoint key partition so
// the final verification is exact. Run under -race this exercises every
// locking path: interval read/write locks, the fallback lock, the snapshot
// swap, and the rebuild mutex.
func TestConcurrentSoak(t *testing.T) {
	base := dataset.Uniform(40_000, 21)
	dcfg := rl.DefaultDAREConfig()
	dcfg.SampleCap = 8192
	ix := New(Config{
		Name:                 "Chameleon",
		Dare:                 rl.NewCostDARE(dcfg),
		Policy:               rl.NewCostPolicy(rl.DefaultEnv()),
		ReconstructThreshold: -1, // Reconstruct is driven explicitly below
	})
	if err := ix.BulkLoad(base, nil); err != nil {
		t.Fatal(err)
	}
	ix.StartRetrainer(time.Millisecond)
	defer ix.StopRetrainer()

	const writers, readers = 3, 3
	perWriter := 3000
	if testing.Short() {
		perWriter = 600
	}
	// Writer g inserts keys congruent to g modulo writers, above the base
	// range, deleting every third one again.
	writerBase := base[len(base)-1] + 1
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := writerBase + uint64(i*writers+g)
				if err := ix.Insert(k, k+1); err != nil {
					t.Errorf("writer %d: Insert(%d): %v", g, k, err)
					return
				}
				if i%3 == 2 {
					if err := ix.Delete(k); err != nil {
						t.Errorf("writer %d: Delete(%d): %v", g, k, err)
						return
					}
				}
			}
		}(g)
	}
	stopRead := make(chan struct{})
	var rg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rg.Add(1)
		go func(g int) {
			defer rg.Done()
			i := g
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				k := base[i%len(base)]
				if v, ok := ix.Lookup(k); !ok || v != k {
					t.Errorf("reader %d: Lookup(%d) = %d,%v", g, k, v, ok)
					return
				}
				if i%512 == 0 {
					n := 0
					ix.Range(base[0], base[99], func(_, _ uint64) bool {
						n++
						return true
					})
					if n != 100 {
						t.Errorf("reader %d: range saw %d base keys, want 100", g, n)
						return
					}
				}
				i += 7
			}
		}(g)
	}
	// A structural pass and a full reconstruction while traffic flows.
	ix.RetrainPass()
	ix.Reconstruct()

	// Wait for writers, then stop the readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("soak deadlocked")
	}
	close(stopRead)
	rg.Wait()

	// Exact final verification per partition.
	want := len(base)
	for g := 0; g < writers; g++ {
		for i := 0; i < perWriter; i++ {
			k := writerBase + uint64(i*writers+g)
			v, ok := ix.Lookup(k)
			if i%3 == 2 {
				if ok {
					t.Fatalf("deleted key %d still present", k)
				}
				continue
			}
			want++
			if !ok || v != k+1 {
				t.Fatalf("inserted key %d: got %d,%v", k, v, ok)
			}
		}
	}
	if ix.Len() != want {
		t.Fatalf("Len = %d, want %d", ix.Len(), want)
	}
}

// TestConcurrentLifecycle hammers StartRetrainer/StopRetrainer/Reconstruct
// from several goroutines at once while updates flow; the lifecycle mutex
// must serialize them without deadlock or lost state.
func TestConcurrentLifecycle(t *testing.T) {
	keys := dataset.Uniform(10_000, 33)
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 4 {
				case 0:
					ix.StartRetrainer(time.Millisecond)
				case 1:
					ix.StopRetrainer()
				case 2:
					ix.Reconstruct()
				default:
					ix.RetrainPass()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := keys[len(keys)-1] + 1
		for i := uint64(0); i < 400; i++ {
			if err := ix.Insert(base+i, i); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
			if _, ok := ix.Lookup(keys[int(i)%len(keys)]); !ok {
				t.Error("base key lost during lifecycle churn")
				return
			}
		}
	}()
	wg.Wait()
	ix.StopRetrainer()
	if ix.retrainerRunning() {
		t.Fatal("retrainer still running after final Stop")
	}
	for i := 0; i < len(keys); i += 97 {
		if _, ok := ix.Lookup(keys[i]); !ok {
			t.Fatalf("key %d lost", keys[i])
		}
	}
}
