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
// (seed 42) into New(Options{}). The digests cover every construction
// decision — CostDARE's p0 and g, CostPolicy's fanout at every lower node —
// and EBH placement in every leaf, so a change to the search that moves any
// of them fails here. The 2 M-key rows are skipped under
// -short.
func TestBulkLoadGolden(t *testing.T) {
	cases := []struct {
		gen    string
		n      int
		digest string
	}{
		{dataset.UDEN, 30_000,
			"4d4498cb9d6b70a950b5a9fb10e0d696832ee1b6fe21e88f3e0a58ec6e2a0a7f"},
		{dataset.OSMC, 30_000,
			"5dadd3b17e129e0322366ef32aaeb57645f9a81197d00aa6309752895fc95c8b"},
		{dataset.LOGN, 30_000,
			"1d501740f0d40980a8a076e9b67ef904a72c946b935c86b5cef332ef943030f5"},
		{dataset.FACE, 30_000,
			"b66155c6362155b9b3480306d5d7a63f8205d9bf76322926ef2929ff196192d1"},
		{dataset.UDEN, 400_000,
			"d5355722d6a7c7dcd3dd264e14bf1c3d44c5d584bcea276ca6249b4df9819461"},
		{dataset.OSMC, 400_000,
			"d0a42c4068f06bcd57a9260d4a0702bb54b6557eaaad15adfe1cf78e664c0f99"},
		{dataset.LOGN, 400_000,
			"307c467f89786bea9503801098aa08e63e4fca9c3be073ec709dbed57e03075d"},
		{dataset.FACE, 400_000,
			"5140d2dd6f7c968a0798fdeb3d5fb7ef33dfdce2fc4df350e4a4945fa9c76604"},
		{dataset.UDEN, 2_000_000,
			"148b321daf7e9b51fd46838f2919c03b43b67a7a31297603886a44a5b5657c2c"},
		{dataset.OSMC, 2_000_000,
			"d307b6ff795ca06b935754009efc26e26c827ce46ebd46c53da69052c1d688fc"},
		{dataset.LOGN, 2_000_000,
			"3aa9b42bd0debdab93c15927f82bb31bab909b95a65f08c128ff01b98e4530b1"},
		{dataset.FACE, 2_000_000,
			"60e0f2c330fd5e5138020abb2f5bed650fab4ec2ab135f4bf9e7c26237ad8e3c"},
	}
	for _, c := range cases {
		if testing.Short() && c.n > 400_000 {
			continue
		}
		ix := New(Options{})
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
	ix := New(Options{})
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
