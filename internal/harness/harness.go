// Package harness drives the paper's evaluation (Section VI): it builds
// every index over the SOSD-style datasets, replays the workloads of
// Figs. 8–15 and Table V, and renders report tables whose rows correspond
// to the paper's plotted series. It also holds the repo's own sweeps beyond
// the paper (Experiments lists every one); cmd/chameleon-bench is the one
// command that runs them.
package harness

import (
	"strconv"
	"time"

	"chameleon/internal/baselines/alex"
	"chameleon/internal/baselines/bptree"
	"chameleon/internal/baselines/dic"
	"chameleon/internal/baselines/dili"
	"chameleon/internal/baselines/finedex"
	"chameleon/internal/baselines/lipp"
	"chameleon/internal/baselines/pgm"
	"chameleon/internal/baselines/rs"
	"chameleon/internal/core"
	"chameleon/internal/dataset"
	"chameleon/internal/index"
	"chameleon/internal/rl"
	"chameleon/internal/workload"
)

// Config scopes an experiment run. The paper uses 50–200M keys on a 128 GB
// machine; the default here is laptop scale, raisable with -n.
type Config struct {
	N    int           // full dataset cardinality (default 400_000)
	Ops  int           // mixed-workload stream length (default 200_000)
	Seed uint64        // default 42
	Dur  time.Duration // repl's measurement window per mode (default 500ms)
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.N <= 0 {
		c.N = 400_000
	}
	if c.Ops <= 0 {
		c.Ops = 200_000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Dur <= 0 {
		c.Dur = 500 * time.Millisecond
	}
	return c
}

// AllIndexes lists every structure in the Fig. 8 read-only comparison, in
// the paper's plotting order.
var AllIndexes = []string{"B+Tree", "DIC", "RS", "PGM", "ALEX", "LIPP", "DILI", "FINEdex", "Chameleon"}

// UpdatableIndexes is the Fig. 11–14 set: the paper drops DIC and RS, which
// are "designed for static workloads".
var UpdatableIndexes = []string{"B+Tree", "PGM", "ALEX", "LIPP", "DILI", "FINEdex", "Chameleon"}

// AblationIndexes is the Table V set.
var AblationIndexes = []string{"DILI", "ALEX", "ChaB", "ChaDA", "ChaDATS"}

// Builder returns the constructor for a named index.
func Builder(name string) index.Builder {
	switch name {
	case "B+Tree":
		return func() index.Index { return bptree.New(0) }
	case "DIC":
		return func() index.Index { return dic.New() }
	case "RS":
		return func() index.Index { return rs.New(0, 0) }
	case "PGM":
		return func() index.Index { return pgm.New(0) }
	case "ALEX":
		return func() index.Index { return alex.New() }
	case "LIPP":
		return func() index.Index { return lipp.New() }
	case "DILI":
		return func() index.Index { return dili.New(0) }
	case "FINEdex":
		return func() index.Index { return finedex.New(0, 0) }
	case "Chameleon", "ChaDATS":
		return func() index.Index {
			return core.New(core.Config{Name: name, Policy: rl.NewCostPolicy(rl.DefaultEnv())})
		}
	case "ChaB":
		return func() index.Index { return core.NewChaB() }
	case "ChaDA":
		return func() index.Index { return core.New(core.Config{Name: "ChaDA"}) }
	default:
		panic("harness: unknown index " + name)
	}
}

// Build constructs and loads an index, returning it with the build time
// (the Fig. 10 quantity).
func Build(name string, keys []uint64) (index.Index, time.Duration) {
	ix := Builder(name)()
	start := time.Now()
	if err := ix.BulkLoad(keys, nil); err != nil {
		panic(name + ": " + err.Error())
	}
	return ix, time.Since(start)
}

// MeasureLookupNs replays probes and returns mean lookup latency in
// nanoseconds. hits guards against dead-code elimination and validates the
// probe set.
func MeasureLookupNs(ix index.Index, probes []uint64) (ns float64, hits int) {
	start := time.Now()
	for _, k := range probes {
		if _, ok := ix.Lookup(k); ok {
			hits++
		}
	}
	total := time.Since(start)
	return float64(total.Nanoseconds()) / float64(len(probes)), hits
}

// RunOps replays a stream, returning the total wall time and per-kind op
// counts. Insert/Delete errors are tolerated (streams are pre-validated;
// an index with relaxed semantics may still reject an op).
func RunOps(ix index.Index, ops []workload.Op) (time.Duration, [3]int) {
	var counts [3]int
	start := time.Now()
	for _, op := range ops {
		switch op.Kind {
		case workload.Lookup:
			ix.Lookup(op.Key)
		case workload.Insert:
			ix.Insert(op.Key, op.Val) //nolint:errcheck
		case workload.Delete:
			ix.Delete(op.Key) //nolint:errcheck
		}
		counts[op.Kind]++
	}
	return time.Since(start), counts
}

// Throughput replays a stream and returns operations per second.
func Throughput(ix index.Index, ops []workload.Op) float64 {
	d, _ := RunOps(ix, ops)
	if d <= 0 {
		return 0
	}
	return float64(len(ops)) / d.Seconds()
}

// Probes draws n random present keys for lookup measurement.
func Probes(keys []uint64, n int, seed uint64) []uint64 {
	return opsKeys(workload.ReadOnly(keys, n, seed))
}

func opsKeys(ops []workload.Op) []uint64 {
	out := make([]uint64, len(ops))
	for i, op := range ops {
		out[i] = op.Key
	}
	return out
}

// stopRetraining shuts down a Chameleon retrainer if the index has one, so
// measurements on other structures are not perturbed.
func stopRetraining(ix index.Index) {
	if c, ok := ix.(*core.Index); ok {
		c.StopRetrainer()
	}
}

// datasetKeys memoizes generated datasets per (name, n) within one run.
type datasetCache map[string][]uint64

func (dc datasetCache) get(name string, n int, seed uint64) []uint64 {
	k := name + ":" + strconv.Itoa(n)
	if keys, ok := dc[k]; ok {
		return keys
	}
	keys := dataset.Generate(name, n, seed)
	dc[k] = keys
	return keys
}
