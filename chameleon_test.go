package chameleon_test

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/dataset"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 30_000, 1)
	ix := chameleon.New(chameleon.Options{})
	defer ix.Close()
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len = %d", ix.Len())
	}
	for i := 0; i < len(keys); i += 101 {
		if v, ok := ix.Lookup(keys[i]); !ok || v != keys[i] {
			t.Fatalf("Lookup(%d) = %d,%v", keys[i], v, ok)
		}
	}
	if err := ix.Insert(keys[0], 1); !errors.Is(err, chameleon.ErrDuplicateKey) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if err := ix.Delete(keys[0] - 1); !errors.Is(err, chameleon.ErrKeyNotFound) {
		t.Fatalf("absent delete: %v", err)
	}
	s := ix.Stats()
	if s.MaxHeight < 2 || ix.Height() != s.MaxHeight {
		t.Fatalf("heights inconsistent: %+v vs %d", s, ix.Height())
	}
	if ix.Bytes() <= 0 {
		t.Fatal("Bytes not positive")
	}
	if lsn := ix.LocalSkewness(); lsn < 1.3 {
		t.Fatalf("FACE lsn = %v, want high skew", lsn)
	}
}

func TestAutoRetrainerViaOptions(t *testing.T) {
	keys := dataset.Generate(dataset.UDEN, 20_000, 2)
	ix := chameleon.New(chameleon.Options{RetrainEvery: time.Millisecond})
	defer ix.Close()
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	base := keys[len(keys)-1]
	for i := uint64(1); i <= 40_000; i++ {
		if err := ix.Insert(base+i, i); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n, _ := ix.RetrainStats(); n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-started retrainer never retrained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRangePublic(t *testing.T) {
	keys := dataset.Uniform(5000, 3)
	ix := chameleon.New(chameleon.Options{})
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	n := 0
	ix.Range(keys[100], keys[200], func(k, v uint64) bool { n++; return true })
	if n != 101 {
		t.Fatalf("range visited %d keys, want 101", n)
	}
}

func TestLoadStartsRetrainer(t *testing.T) {
	// Regression: Load (via ReadFrom) ignored Options.RetrainEvery, so an
	// index restored from disk silently ran without background retraining
	// even though BulkLoad with the same options would have started it.
	keys := dataset.Generate(dataset.UDEN, 20_000, 5)
	ix := chameleon.New(chameleon.Options{})
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.cham")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := chameleon.Load(path, chameleon.Options{RetrainEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	// Drift the loaded index so the retrainer has work to do.
	base := keys[len(keys)-1]
	for i := uint64(1); i <= 40_000; i++ {
		if err := loaded.Insert(base+i, i); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n, _ := loaded.RetrainStats(); n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retrainer never ran after Load with RetrainEvery set")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConcurrentStartStopClose(t *testing.T) {
	// Start/Stop/Close from many goroutines must not race or deadlock.
	keys := dataset.Uniform(10_000, 8)
	ix := chameleon.New(chameleon.Options{})
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if (g+i)%2 == 0 {
					ix.StartRetrainer(time.Millisecond)
				} else if err := ix.Close(); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	// Foreground traffic while the lifecycle churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := keys[len(keys)-1]
		for i := uint64(1); i <= 500; i++ {
			if err := ix.Insert(base+i, i); err != nil {
				t.Error(err)
			}
			ix.Lookup(keys[int(i)%len(keys)])
		}
	}()
	wg.Wait()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if v, ok := ix.Lookup(keys[0]); !ok || v != keys[0] {
		t.Fatalf("index unusable after lifecycle churn: %d,%v", v, ok)
	}
}

func TestSaveLoadFile(t *testing.T) {
	keys := dataset.Generate(dataset.LOGN, 20_000, 9)
	ix := chameleon.New(chameleon.Options{})
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.cham")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := chameleon.Load(path, chameleon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != len(keys) {
		t.Fatalf("Len = %d", loaded.Len())
	}
	if loaded.Stats() != ix.Stats() {
		t.Fatal("structure changed across Save/Load")
	}
	for i := 0; i < len(keys); i += 101 {
		if _, ok := loaded.Lookup(keys[i]); !ok {
			t.Fatalf("key %d lost", keys[i])
		}
	}
	if _, err := chameleon.Load(filepath.Join(t.TempDir(), "nope"), chameleon.Options{}); err == nil {
		t.Fatal("missing file accepted")
	}
}
