package report

import (
	"cmp"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Env is the environment block every BENCH_<experiment>.json opens with:
// what ran, at what size, on which machine, from which source. Keys it
// shares with the repo benchmark's environment (bench/) use bench/'s names.
type Env struct {
	Experiment string  `json:"experiment"`
	N          int     `json:"n"`
	Ops        int     `json:"ops"`
	Seed       uint64  `json:"seed"`
	DurationS  float64 `json:"duration_s"` // measurement window per timed point (-dur)
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
}

// BenchFile is the layout of a BENCH_<experiment>.json: the environment,
// then the experiment's own results.
type BenchFile struct {
	Env     Env `json:"environment"`
	Results any `json:"results"`
}

// WriteBench stamps env with the machine and the source (GOMAXPROCS, CPU
// count, Go version, commit) and writes it with results as indented JSON to
// dir/BENCH_<env.Experiment>.json, returning the path. A torn file fails
// JSON parsing loudly, so it is written in place.
func WriteBench(dir string, env Env, results any) (string, error) {
	env.GoMaxProcs = runtime.GOMAXPROCS(0)
	env.NumCPU = runtime.NumCPU()
	env.Go = runtime.Version()
	env.Commit = commit()
	data, err := json.MarshalIndent(BenchFile{Env: env, Results: results}, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+env.Experiment+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit names the working tree's source: its abbreviated commit, suffixed
// "-dirty" when tracked files differ from it, or "unknown" outside a git
// checkout.
func commit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--exclude=*").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice as
// element ⌊p·(n−1)⌋: the lower neighbour, without interpolation (not nearest
// rank, which reads one element higher at p = 0.99 of 10 samples). p = 1 is
// the maximum. An empty slice yields the zero value. Recorded BENCH numbers
// use this formula, so it stays.
func Percentile[T cmp.Ordered](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[int(p*float64(len(sorted)-1))]
}
