package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chameleon/internal/dataset"
	"chameleon/internal/report"
	"chameleon/internal/workload"
)

// repoRoot holds the committed BENCH_<id>.json files.
const repoRoot = "../.."

// toyCfg is the smoke-test size: large enough that every experiment runs
// each of its phases, small enough that none measures anything.
func toyCfg() Config {
	return Config{N: 2_000, Ops: 100, Seed: 7, Dur: 10 * time.Millisecond}
}

func TestBuildersCoverAllNames(t *testing.T) {
	keys := dataset.Uniform(5000, 1)
	names := append(append([]string{}, AllIndexes...), "ChaB", "ChaDA", "ChaDATS")
	for _, name := range names {
		ix, d := Build(name, keys)
		if ix.Name() == "" || d < 0 {
			t.Fatalf("%s: bad build", name)
		}
		if ix.Len() != len(keys) {
			t.Fatalf("%s: Len = %d", name, ix.Len())
		}
		ns, hits := MeasureLookupNs(ix, Probes(keys, 1000, 2))
		if hits != 1000 {
			t.Fatalf("%s: %d/1000 probe hits", name, hits)
		}
		if ns <= 0 {
			t.Fatalf("%s: nonpositive latency", name)
		}
		stopRetraining(ix)
	}
}

func TestUnknownBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown index name did not panic")
		}
	}()
	Builder("NoSuchIndex")
}

func TestThroughputPositive(t *testing.T) {
	keys := dataset.Uniform(10_000, 3)
	ix, _ := Build("B+Tree", keys)
	ops := workload.Mixed(keys, workload.MixedConfig{WriteFrac: 0.5, InsertFrac: 0.5, Ops: 5000, Seed: 4})
	if tp := Throughput(ix, ops); tp <= 0 {
		t.Fatalf("throughput %v", tp)
	}
}

// TestEveryExperimentRuns checks that every committed BENCH_<id>.json at
// the repo root parses and names an experiment that exists, then smoke-tests
// each experiment at toy size: the emitted tables are well formed, an
// experiment returns results exactly when its BENCH file is committed, and
// results go through the BENCH file writer and parse back under the
// environment block. At toy size nothing is measured, so the experiments
// share the CPUs.
func TestEveryExperimentRuns(t *testing.T) {
	ids := map[string]bool{}
	for _, exp := range Experiments {
		ids[exp.ID] = true
	}
	committed, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var f report.BenchFile
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatalf("%s does not parse: %v", path, err)
		}
		if id := f.Env.Experiment; !ids[id] || filepath.Base(path) != "BENCH_"+id+".json" {
			t.Errorf("%s: environment names experiment %q, which is not its file's or not in Experiments", path, id)
		}
	}

	if testing.Short() {
		t.Skip("experiment sweep")
	}
	cfg := toyCfg()
	for _, exp := range Experiments {
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			tables, results := exp.Run(cfg)
			_, err := os.Stat(filepath.Join(repoRoot, "BENCH_"+exp.ID+".json"))
			if isCommitted := err == nil; isCommitted != (results != nil) {
				t.Errorf("returns results: %t, BENCH_%s.json committed: %t", results != nil, exp.ID, isCommitted)
			}
			checkBenchFile(t, exp.ID, cfg, results)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if tb.Title == "" || len(tb.Cols) == 0 || len(tb.Rows) == 0 {
					t.Fatalf("malformed table %q", tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Cols) {
						t.Fatalf("%s: row width %d, cols %d", tb.Title, len(row), len(tb.Cols))
					}
				}
				var buf bytes.Buffer
				tb.Fprint(&buf)
				if !strings.Contains(buf.String(), tb.Cols[0]) {
					t.Fatalf("%s: render missing header", tb.Title)
				}
			}
		})
	}
}

func checkBenchFile(t *testing.T, id string, cfg Config, results any) {
	t.Helper()
	if results == nil {
		return
	}
	env := report.Env{Experiment: id, N: cfg.N, Ops: cfg.Ops, Seed: cfg.Seed, DurationS: cfg.Dur.Seconds()}
	path, err := report.WriteBench(t.TempDir(), env, results)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f report.BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if f.Env.Experiment != id || f.Env.N != cfg.N || f.Env.NumCPU == 0 || f.Env.Go == "" || f.Env.Commit == "" {
		t.Fatalf("%s: environment block %+v", path, f.Env)
	}
	if f.Results == nil {
		t.Fatalf("%s: no results", path)
	}
}

// TestFig15RetrainsPerWave: Fig. 15's "retrains" column counts each wave's
// retrains, so a dataset's four rows sum to the index's total.
func TestFig15RetrainsPerWave(t *testing.T) {
	cfg := toyCfg()
	keys := dataset.Generate(dataset.OSMC, 20_000, cfg.Seed)
	base, rest := splitShuffled(keys, len(keys)/2, cfg.Seed)
	ix := fig15Index()
	_, _, retrains := fig15Run(cfg, ix, base, rest, 4, true)
	total, _ := ix.RetrainStats()
	var sum int64
	for _, r := range retrains {
		sum += r
	}
	t.Logf("retrains per wave %v, total %d", retrains, total)
	if len(retrains) != 4 || sum != total || total == 0 {
		t.Fatalf("retrains per wave %v sum to %d, want 4 waves summing to the total %d > 0", retrains, sum, total)
	}
}

func TestSpikeTime(t *testing.T) {
	samples := []time.Duration{10, 10, 10, 10, 10, 10, 10, 500, 10, 600}
	// Median 10 → threshold 100 → spikes are 500 and 600.
	if got := spikeTime(samples); got != 1100 {
		t.Fatalf("spikeTime = %d, want 1100", got)
	}
	if spikeTime(nil) != 0 {
		t.Fatal("empty samples must yield 0")
	}
}
