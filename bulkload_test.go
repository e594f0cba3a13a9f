package chameleon

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"chameleon/internal/dataset"
)

// TestBulkLoadGolden pins bulk-built trees bit for bit: the sha256 of the
// CHAMSNP3 snapshot WriteTo emits after BulkLoad of each generator's keys
// (seed 42) into New(Options{Seed: 42}). The digests cover every
// construction decision — CostDARE's p0 and M, CostPolicy's fanout at every
// lower node — and EBH placement in every leaf, so a change to the search
// that moves any of them fails here. The 2 M-key rows are skipped under
// -short.
func TestBulkLoadGolden(t *testing.T) {
	cases := []struct {
		gen    string
		n      int
		digest string
	}{
		{dataset.UDEN, 30_000,
			"cbd2b2511ea4a6301eb98cce5ad61182a917b097e2b5d9efa92fb29d83d822ff"},
		{dataset.OSMC, 30_000,
			"6fe791178e9902f95cd6f72813c4e60e8b2e2672c31ccf20363e613291d078e5"},
		{dataset.LOGN, 30_000,
			"4e4c96b2dcf61319328ec53bbb77241649b1fc152840228664532981483cb69f"},
		{dataset.FACE, 30_000,
			"750a1245aff9109ba4d24c944a14793224b3556a96fed74a5577d9b421c72dad"},
		{dataset.UDEN, 400_000,
			"6a05380da624cdbc2a8433216f9d00704c08cf1e8e800348406ba2e4b644b620"},
		{dataset.OSMC, 400_000,
			"e441ae42a2e6ae476adebc39aab9cec757c9ab388700f1f9be55428fc24dbdf6"},
		{dataset.LOGN, 400_000,
			"5a22685d2eb1fa1932209cd304a2452e2a14a9df3c5a9e1d25e3ea2c9476d942"},
		{dataset.FACE, 400_000,
			"ad29e283ab4335f2d570ed83fbb29344b9ffc10c1d29b7eae1ab5162c022cef8"},
		{dataset.UDEN, 2_000_000,
			"627d9aa23e3e0fd66db1f764c958cf4b34d4306671808f5885ad4bcb950f1d84"},
		{dataset.OSMC, 2_000_000,
			"c76d723f22aebf13ebbeaebea0ae886d1aa743d6c10274278da54b8f5c146836"},
		{dataset.LOGN, 2_000_000,
			"55cda917578d917b4b021807a335bdb86346145f6c5711c227cb76538631f3ec"},
		{dataset.FACE, 2_000_000,
			"b0caaaa7a3f168db4d19bbe55c67d780c08ee32231be92d665d62101c75ca84e"},
	}
	for _, c := range cases {
		if testing.Short() && c.n > 400_000 {
			continue
		}
		ix := New(Options{Seed: 42})
		if err := ix.BulkLoad(dataset.Generate(c.gen, c.n, 42), nil); err != nil {
			t.Fatalf("%s %d: BulkLoad: %v", c.gen, c.n, err)
		}
		h := sha256.New()
		if _, err := ix.WriteTo(h); err != nil {
			t.Fatalf("%s %d: WriteTo: %v", c.gen, c.n, err)
		}
		ix.Close()
		if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
			t.Errorf("%s %d keys: snapshot sha256 %s, want %s", c.gen, c.n, got, c.digest)
		}
	}
}

// TestBulkLoadAllocations bounds what the construction search allocates: a
// 2 M-key FACE bulk load makes at most 0.05 allocations per key. The search
// scores every candidate fanout into one reused slot buffer; when each
// candidate child allocated its own slot table it made 1.02 per key. Skipped
// under -short and the race detector.
func TestBulkLoadAllocations(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("2 M-key bulk load")
	}
	const n = 2_000_000
	keys := dataset.Generate(dataset.FACE, n, 42)
	ix := New(Options{Seed: 42})
	defer ix.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perKey := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.4f allocations per key, %.0f MB", perKey, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	if perKey > 0.05 {
		t.Fatalf("bulk load made %.3f allocations per key, want at most 0.05", perKey)
	}
}
