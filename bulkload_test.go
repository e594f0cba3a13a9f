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
			"3a488538f805bf40d74d31c09cafc511d0d725eac2550f75664549260e28465c"},
		{dataset.OSMC, 30_000,
			"b1bf592b00471a4c5b4a10fc1cb99d69faf64ae8a96430fd05a67760ecb273ff"},
		{dataset.LOGN, 30_000,
			"385debf30ccedfa8f0bce198b88606a1486dfb66decdaf345f7fb34e84841428"},
		{dataset.FACE, 30_000,
			"f323fda2a0094671548dedf75100790ead55edece0f7455cf2703c15d7624a83"},
		{dataset.UDEN, 400_000,
			"a212eda86cd6f35b21e6d10279b36286ed7c5598f24691a0ea2d28d0ff3ac80e"},
		{dataset.OSMC, 400_000,
			"238597539d48a139a705ba0b6d210b9ae7f052b12f3a24aa2cbe687b2ed898a2"},
		{dataset.LOGN, 400_000,
			"8a6da18bd413d34b1e30e75743b1f51886f633cbe5e9e2eb1b59fe47b3bfbea9"},
		{dataset.FACE, 400_000,
			"9a040bffb629d31ae2259c663def79273bed0aa4a6623ad87dbe5c044def256d"},
		{dataset.UDEN, 2_000_000,
			"ea133d7436fbfea72d9c1165292d4ab4fcd4f673b989ceff10dc79f3790c67e7"},
		{dataset.OSMC, 2_000_000,
			"722fc5edb72b830bed8173a2c7848cfc2e1e56c0403bf49f855a488c58fb7e13"},
		{dataset.LOGN, 2_000_000,
			"55cda917578d917b4b021807a335bdb86346145f6c5711c227cb76538631f3ec"},
		{dataset.FACE, 2_000_000,
			"bf8726fd61cc92c1cf370df07c75716aa34a19f549197d966837a424eb992163"},
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
