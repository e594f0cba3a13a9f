// Command chameleon-benchmark is the repo benchmark: the one program every
// performance claim in this repository is measured with. bench/README.md
// describes the workloads and metrics; BENCHMARK.json at the repo root is the
// contract the pipeline runs it under. Start it through bench/run.sh, which
// builds it and the server under test.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runTimeout is the hard limit on one run, set-up and verification included;
// a run that hits it kills its children, removes its files and exits non-zero
// without a result.
const runTimeout = 170 * time.Second

// windowTimeout is when a window gives up and the run is reported as failed:
// three times what the longest window takes on the reference box.
func windowTimeout(secs int) time.Duration { return 6 * time.Duration(secs) * time.Second }

// setupRounds is how many times a run sets up from an empty directory; it
// reports the median round (of two: their mean) and measures on the last. A
// third round would cost the legacy workloads another 6 s of the pipeline's
// time budget for a metric whose bound is already the widest allowed.
const setupRounds = 2

func main() {
	var (
		root      = flag.String("root", ".", "checkout root (run.sh passes it)")
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Uint64("seed", 42, "seed of the dataset and the op stream")
		secs      = flag.Int("seconds", 10, "nominal length of the measured window: the op count is the workload's frozen rate times this")
		trace     = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes a span file")
		selfcheck = flag.Bool("selfcheck", false, "run two sets in alternation (A B A B) and fail if their medians differ by more than a metric's bound")

		role  = flag.String("role", "", "internal: worker role")
		dir   = flag.String("dir", "", "internal: worker directory")
		next  = flag.Uint64("next", 0, "internal: verify worker, ops issued")
		batch = flag.Int("batch", 1, "internal: layers worker, observed group-commit batch")
	)
	flag.Parse()

	if *role != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chameleon-benchmark:", err)
			os.Exit(2)
		}
		os.Exit(workerMain(*role, w, *seed, *dir, *next, *batch))
	}

	var selected []*workload
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chameleon-benchmark:", err)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	b, err := newBench(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chameleon-benchmark:", err)
		os.Exit(1)
	}
	if *selfcheck {
		os.Exit(b.selfcheck(selected, *seed, *secs))
	}
	for _, w := range selected {
		res, err := b.run(w, *seed, *secs, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chameleon-benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.print(os.Stdout)
	}
}

// bench is what every run of this process shares.
type bench struct {
	root     string
	self     string
	serveBin string
	spec     benchmarkSpec
}

// metricSpec and benchmarkSpec mirror BENCHMARK.json, the single place the
// metric names, units, directions and bounds are written down.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func newBench(root string) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	b := &bench{root: root, serveBin: filepath.Join(root, ".bench_build", "bin", "chameleon-serve")}
	if b.self, err = os.Executable(); err != nil {
		return nil, err
	}
	if _, err := os.Stat(b.serveBin); err != nil {
		return nil, fmt.Errorf("server under test not built (start the benchmark through bench/run.sh): %w", err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &b.spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b, nil
}

// result is one run's outcome; print writes it in the pipeline's format.
type result struct {
	workload  *workload
	env       map[string]any
	notes     []string
	specs     []metricSpec      // the metrics the JSON line carries: end-to-end, or per-layer when traced
	all       []metricSpec      // every metric BENCHMARK.json names; the table shows those measured
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	values    map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the environment block and a table of every metric measured,
// by name - an untraced run shows its run.* timing metrics there too - then,
// as the last line, the JSON object the pipeline reads.
func (r *result) print(out *os.File) {
	envLine, _ := json.Marshal(r.env) //nolint:errcheck // a map of strings and numbers
	fmt.Fprintf(out, "environment %s\n", envLine)
	for _, note := range r.notes {
		fmt.Fprintf(out, "note %s: %s\n", r.workload.name, note)
	}
	for _, s := range r.all {
		v, ok := r.values[s.Name]
		if !ok {
			continue
		}
		bound := ""
		if s.Bound > 0 {
			bound = fmt.Sprintf("  may worsen by %.0f%%", s.Bound*100)
		}
		fmt.Fprintf(out, "metric %-18s %-32s %14.4f %-6s %s is better%s\n", r.workload.name, s.Name, v, s.Unit, s.Better, bound)
	}
	r.Metrics = make(map[string]metric, len(r.specs))
	for _, s := range r.specs {
		r.Metrics[s.Name] = metric{Value: r.values[s.Name], Unit: s.Unit}
	}
	line, _ := json.Marshal(r) //nolint:errcheck // plain fields
	fmt.Fprintf(out, "%s\n", line)
}

// account adds a window's ops to the run's attempted/failed totals.
func (r *result) account(w *window) {
	r.Attempted += w.ops()
	r.Failed += w.Failed
	if w.Failed > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%d of ops [%d, %d) failed, first: %s", w.Failed, w.Start, w.Next, w.Failure))
	}
	if w.Next < w.Limit {
		r.Failed++
		r.notes = append(r.notes, fmt.Sprintf("window [%d, %d) stopped at op %d after %.1f s: timed out or out of fresh keys", w.Start, w.Limit, w.Next, float64(w.ElapsedNS)/1e9))
	}
}

// fail records a broken assertion about the run as one failed check.
func (r *result) fail(format string, args ...any) {
	r.Attempted++
	r.Failed++
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// run is one run of one workload. The standard phase sets up setupRounds
// times, measures the untraced window on the last, stops the host gracefully
// and verifies the directory; it yields the end-to-end metrics and the run.*
// timing metrics. A traced run then adds the traced phase (traced.go) on a
// set-up of its own.
func (b *bench) run(w *workload, seed uint64, secs int, traced bool) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	e := &env{ctx: ctx, self: b.self, serveBin: b.serveBin, kids: &children{}, cpus: cpus, own: cpus}
	tmp, err := os.MkdirTemp(filepath.Join(b.root, ".bench_build"), "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp) //nolint:errcheck // best effort; .bench_build is disposable
	defer e.kids.killAll()

	p := &phase{b: b, e: e, w: w, seed: seed, secs: secs, tmp: tmp}
	if p.pat, err = newPattern(seed, w.mix); err != nil {
		return nil, err
	}
	if w.remote {
		if p.s, err = newStream(seed, loadedKeys, w.mix); err != nil {
			return nil, err
		}
	}
	rounds := setupRounds
	if traced {
		rounds = 1
	}
	generator := cpus
	if w.remote {
		generator = cpus[:1]
	}
	p.res = &result{workload: w, values: make(map[string]float64), specs: b.spec.EndToEnd,
		all: append(append([]metricSpec(nil), b.spec.EndToEnd...), b.spec.PerLayer...)}
	p.res.env = map[string]any{
		"workload": w.name, "seed": seed, "traced": traced, "go": runtime.Version(), "nproc": len(cpus),
		"host_cpus": e.hostCPUs(w), "generator_cpus": generator, "callers": w.callers(), "loop": "closed",
		"commit": b.commit(), "loaded_keys": loadedKeys, "warmup_ops": w.warmup,
		"window_ops": w.opsPerSecond * uint64(secs), "setup_rounds": rounds,
	}
	if err := p.standard(rounds, generator); err != nil {
		return nil, err
	}
	if traced {
		p.res.specs = b.spec.PerLayer
		if err := p.traced(); err != nil {
			return nil, err
		}
	}
	p.res.Correct = p.res.Failed == 0
	return p.res, nil
}

// phase is what the steps of one run share.
type phase struct {
	b    *bench
	e    *env
	w    *workload
	seed uint64
	secs int
	tmp  string
	pat  pattern
	s    *stream // remote workloads: the generator's copy of the op stream
	res  *result
}

// setUp takes a workload from an empty directory to "loaded, restarted and
// warm": a builder child bulk-loads and closes, the host starts and answers,
// the fixed-count warm-up runs. tr, non-nil, asks for the traced remote host.
func (p *phase) setUp(dir string, tr *tracer) (host, error) {
	if err := p.e.runWorker(nil, "build", p.w, p.seed, dir); err != nil {
		return nil, err
	}
	var h host
	var err error
	switch {
	case !p.w.remote:
		h, err = startEmbedHost(p.e, p.w, p.seed, dir)
	case tr != nil:
		h, err = startInprocHost(p.e, p.w, p.s, dir, tr)
	default:
		h, err = startServeHost(p.e, p.w, p.s, dir)
	}
	if err != nil {
		return nil, err
	}
	warm, err := h.run(0, p.w.warmup, 0, nil)
	if err != nil {
		h.kill()
		return nil, err
	}
	p.res.account(warm)
	return h, nil
}

// finish stops the host gracefully and has a verifier child reopen the
// directory: ops [0, next) of the stream were issued against it.
func (p *phase) finish(h host, dir string, next uint64) (diskBytes int64, liveKeys int, err error) {
	if err := h.stop(); err != nil {
		return 0, 0, fmt.Errorf("graceful stop: %w", err)
	}
	if diskBytes, err = dirSize(dir); err != nil {
		return 0, 0, err
	}
	var ver verifyReport
	if err := p.e.runWorker(&ver, "verify", p.w, p.seed, dir, "-next", fmt.Sprint(next)); err != nil {
		return 0, 0, err
	}
	p.res.Attempted += ver.Checked
	p.res.Failed += ver.Failed
	if ver.Failed > 0 {
		p.res.notes = append(p.res.notes, ver.Failure)
	}
	return diskBytes, ver.Len, nil
}

// standard is the untraced measurement. The remote load generator is one
// process on one CPU of its own (generator) for its duration.
func (p *phase) standard(rounds int, generator []int) error {
	e, w, res := p.e, p.w, p.res
	if len(generator) < len(e.cpus) {
		e.own = generator
		if err := pinProcess(generator); err != nil {
			return err
		}
		defer func() {
			e.own = e.cpus
			pinProcess(e.cpus) //nolint:errcheck // the next pin of this process reports it
		}()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(len(generator)))

	// Every set-up round but the last is thrown away.
	var h host
	var dir string
	var setups []float64
	for round := 0; round < rounds; round++ {
		if h != nil {
			h.kill()
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		dir = filepath.Join(p.tmp, fmt.Sprintf("data-%d", round))
		t0 := time.Now()
		var err error
		if h, err = p.setUp(dir, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	c0, err := h.counters()
	if err != nil {
		return err
	}
	p0, err := readProc(h.pid())
	if err != nil {
		return err
	}
	// The host's resident set every 100 ms: its median says what the host
	// holds most of the time, next to the peak that rss_mb reports.
	stopSampling := make(chan struct{})
	sampled := make(chan []float64)
	go func() {
		var rss []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if u, err := readProc(h.pid()); err == nil {
					rss = append(rss, float64(u.rssBytes)/(1<<20))
				}
			case <-stopSampling:
				sampled <- rss
				return
			}
		}
	}()
	win, err := h.run(w.warmup, w.warmup+w.opsPerSecond*uint64(p.secs), windowTimeout(p.secs), nil)
	close(stopSampling)
	rss := <-sampled
	if err != nil {
		return err
	}
	p1, err := readProc(h.pid())
	if err != nil {
		return err
	}
	c1, err := h.counters()
	if err != nil {
		return err
	}
	res.account(win)
	if f := c1.Flushes - c0.Flushes; f < w.minFlushes {
		res.fail("only %d flushes inside the window, want >= %d", f, w.minFlushes)
	}
	if c := c1.Compactions - c0.Compactions; c < w.minCompactions {
		res.fail("only %d compactions inside the window, want >= %d", c, w.minCompactions)
	}
	disk, live, err := p.finish(h, dir, win.Next)
	if err != nil {
		return err
	}

	v := res.values
	v["setup_s"] = median(setups)
	v["rss_mb"] = float64(p1.hwmBytes) / (1 << 20)
	v["disk_bytes_per_key"] = ratio(float64(disk), float64(live))
	v["write_bytes_per_write"] = ratio(float64(p1.writeBytes-p0.writeBytes), float64(p.pat.writes(win.Start, win.Next)))
	v["run.rss_median_mb"] = median(rss)
	v["run.ops_per_s"] = win.opsPerSec()
	v["run.get_p50_us"] = win.Lat[latGet].P50
	v["run.write_p50_us"] = win.Lat[latWrite].P50
	v["run.cpu_us_per_op"] = ratio((p1.cpuSeconds-p0.cpuSeconds)*1e6, float64(win.ops()))
	for c, name := range [numLat]string{"get", "write", "range"} {
		l := win.Lat[c]
		res.notes = append(res.notes, fmt.Sprintf("%s latency: %d samples, p50 %.2f us, p%g %.2f us", name, l.Samples, l.P50, l.TailP, l.Tail))
	}
	res.notes = append(res.notes, fmt.Sprintf("window: %d ops in %.2f s; %d flushes, %d compactions, mean group-commit batch %.1f; set-up rounds %.2f s",
		win.ops(), float64(win.ElapsedNS)/1e9, c1.Flushes-c0.Flushes, c1.Compactions-c0.Compactions,
		ratio(float64(c1.BatchedOps-c0.BatchedOps), float64(c1.Batches-c0.Batches)), setups))
	return nil
}

// commit is the checkout's commit, when it is a git checkout.
func (b *bench) commit() string {
	cmd := exec.Command("git", "-C", b.root, "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(b.root)) // never a repo above the checkout
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
