package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLocalSkewnessBounds(t *testing.T) {
	// Property: lsn is always in [π/4, π/2) for any sorted unique dataset
	// (Definition 3).
	f := func(raw []uint64) bool {
		keys := SortDedup(raw)
		lsn := LocalSkewness(keys)
		return lsn >= math.Pi/4-1e-12 && lsn < math.Pi/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSkewnessEvenSpacing(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i) * 100
	}
	lsn := LocalSkewness(keys)
	if math.Abs(lsn-math.Pi/4) > 1e-9 {
		t.Fatalf("evenly spaced keys: lsn = %v, want π/4 = %v", lsn, math.Pi/4)
	}
}

func TestLocalSkewnessDegenerate(t *testing.T) {
	for _, keys := range [][]uint64{nil, {7}, {3, 3}} {
		if got := LocalSkewness(keys); math.Abs(got-math.Pi/4) > 1e-9 {
			t.Errorf("LocalSkewness(%v) = %v, want π/4", keys, got)
		}
	}
}

func TestLocalSkewnessIncreasesWithClustering(t *testing.T) {
	// Adding a dense cluster to an otherwise uniform dataset must raise lsn.
	uniform := Uniform(10000, 1)
	clustered := Clustered(10000, 1, 0.5, 1, 512)
	lu, lc := LocalSkewness(uniform), LocalSkewness(clustered)
	if lc <= lu {
		t.Fatalf("clustered lsn %v not above uniform lsn %v", lc, lu)
	}
}

func TestGenerateMatchesPaperLSN(t *testing.T) {
	// The paper reports lsn values for each dataset; the synthetic
	// substitutes are calibrated to land near them (see DESIGN.md §4).
	want := map[string]float64{
		UDEN: math.Pi / 4,        // 0.785
		OSMC: 2 * math.Pi / 5,    // 1.257
		LOGN: 12 * math.Pi / 25,  // 1.508
		FACE: 99 * math.Pi / 200, // 1.555
	}
	const n = 200_000
	for _, name := range Names {
		keys := Generate(name, n, 42)
		if len(keys) != n {
			t.Fatalf("%s: got %d keys, want %d", name, len(keys), n)
		}
		got := LocalSkewness(keys)
		if math.Abs(got-want[name]) > 0.12 {
			t.Errorf("%s: lsn = %.4f, want ≈ %.4f", name, got, want[name])
		}
	}
}

func TestGenerateSortedUnique(t *testing.T) {
	for _, name := range Names {
		keys := Generate(name, 50_000, 7)
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				t.Fatalf("%s: keys[%d]=%d not above keys[%d]=%d",
					name, i, keys[i], i-1, keys[i-1])
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(FACE, 10_000, 99)
	b := Generate(FACE, 10_000, 99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different keys at %d", i)
		}
	}
	c := Generate(FACE, 10_000, 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestClusterVarianceSkewSweep(t *testing.T) {
	// Fig. 9: decreasing cluster variance must increase local skewness.
	prev := 0.0
	for i, sigma := range []float64{1 << 20, 1 << 14, 1 << 8, 1 << 2} {
		keys := ClusterVariance(100_000, 5, sigma)
		lsn := LocalSkewness(keys)
		if i > 0 && lsn <= prev {
			t.Fatalf("sigma=%v: lsn %v did not increase over %v", sigma, lsn, prev)
		}
		prev = lsn
	}
}

func TestSortDedup(t *testing.T) {
	got := SortDedup([]uint64{5, 1, 5, 3, 1, 9})
	want := []uint64{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSortDedupProperty(t *testing.T) {
	f := func(raw []uint64) bool {
		seen := map[uint64]bool{}
		for _, k := range raw {
			seen[k] = true
		}
		out := SortDedup(append([]uint64(nil), raw...))
		if len(out) != len(seen) {
			return false
		}
		for i, k := range out {
			if !seen[k] || (i > 0 && out[i-1] >= k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
