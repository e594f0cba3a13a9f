// Package core implements the Chameleon index (Section III): a tree of
// precise linear inner nodes (Eq. 1) over Error Bounded Hashing leaves, bulk
// loaded by the MARL construction of Section IV (DARE shapes the upper h−1
// levels, TSMDP refines below) and kept healthy under updates by the
// Interval-Lock-guarded background retraining of Section V.
//
// Concurrency model (a deliberate departure from the paper's single
// foreground thread): any number of goroutines may call Lookup, Range,
// Insert, and Delete concurrently, alongside the background retraining
// goroutine. Lookup/Range take shared read locks on the level-h intervals
// they cross, Insert/Delete take exclusive write locks, and the retrainer
// takes exclusive retrain locks — so readers share intervals, writers
// serialize per interval, and retraining never blocks operations on other
// intervals. The whole structure (root, gate registry, lock table) is an
// atomically swapped snapshot, so full reconstructions build off-line and
// publish with a single pointer store; paths that never cross a gate (an
// empty index, degenerate upper levels) are guarded by a dedicated fallback
// interval so no leaf access is ever unlocked. BulkLoad, Reconstruct, and
// ReadFrom serialize through a lifecycle mutex and briefly exclude writers
// while swapping; readers are never blocked by a swap.
package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/ebh"
	"chameleon/internal/ilock"
	"chameleon/internal/index"
	"chameleon/internal/rl"
)

// noGate marks inner nodes whose children are not level-h retraining units.
const noGate = ^uint64(0)

// Config controls construction and retraining. The zero value is usable:
// Defaults fills in the paper's Table IV settings with the deterministic
// cost-model policies.
type Config struct {
	// Name overrides the display name (defaults to "Chameleon").
	Name string
	// Tau is the EBH collision target τ (default 0.45).
	Tau float64
	// Alpha is the EBH hash factor α (default 131).
	Alpha float64
	// Dare chooses the upper-level parameters, for bulk loads and runtime
	// reconstructions alike. Nil selects the analytic CostDARE search under
	// Tau and Alpha (see bulkLoadSample).
	Dare rl.DAREPolicy
	// Policy decides lower-level fanouts (TSMDP's role). Nil means level-h
	// nodes become leaves directly (the ChaDA ablation).
	Policy rl.FanoutPolicy
	// RetrainEvery is the background retraining period (the paper evaluates
	// 10s). Zero disables the retrainer; it can still be started manually.
	RetrainEvery time.Duration
	// ReconstructThreshold triggers a full DARE reconstruction once
	// cumulative updates since the last build exceed this multiple of the
	// built size (Section V, Limitation 1: "when the number of updated data
	// reaches a certain threshold, ... DARE is triggered to reconstruct the
	// overall index structure"). Zero selects the default of 4 (geometric
	// rebuilds, amortized O(1) per update); a negative value disables it.
	ReconstructThreshold float64
	// Workers bounds the goroutines used by parallel bulk load (every
	// level-h subtree, see build), by the default policies' construction
	// search, and by ReadFrom's leaf restores. Zero means one per
	// available CPU; 1 forces the serial path (bit-identical results either
	// way — parallelism only reorders work across disjoint key ranges and
	// independent candidates, never what is computed). A caller-supplied
	// Dare carries its own worker count.
	Workers int
}

const (
	// bulkLoadSample and reconstructSample are the key samples the default
	// DARE search (a nil Config.Dare) scores its candidates on: a bulk
	// load's, and a quarter of it for a runtime reconstruction, so in-path
	// rebuilds stay bounded. The paper's online DARE invocation is cheap
	// critic inference; here it is the CostDARE search.
	bulkLoadSample    = 1 << 16
	reconstructSample = 1 << 14
	// maxLowerDepth bounds the TSMDP refinement recursion below level h.
	maxLowerDepth = 3
	// lightThreshold is the updates/keys ratio that triggers a leaf-level
	// retrain of a subtree (capacity restore, no sorting).
	lightThreshold = 0.25
	// structThreshold is the ratio that triggers a structural rebuild of
	// the subtree via the fanout policy.
	structThreshold = 1.0
)

// Defaults returns cfg with unset fields filled in.
func (cfg Config) Defaults() Config {
	if cfg.Name == "" {
		cfg.Name = "Chameleon"
	}
	if cfg.Tau <= 0 || cfg.Tau >= 1 {
		cfg.Tau = ebh.DefaultTau
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = ebh.DefaultAlpha
	}
	if cfg.ReconstructThreshold == 0 {
		cfg.ReconstructThreshold = 4.0
	}
	return cfg
}

// node is one tree node: an EBH leaf when leaf is non-nil, otherwise an
// inner node with the interpolation model of Eq. (1). Node shape is
// immutable after construction except for gate child slots, which the
// retrainer swaps under that interval's exclusive Retraining-Lock.
type node struct {
	lo, hi   uint64
	fanout   int
	scale    float64 // cached Eq. (1) factor: fanout/(hi−lo)
	children []*node
	leaf     *ebh.Node
	// gateBase is the first interval-lock ID of this node's children when
	// they are level-h retraining units; noGate otherwise.
	gateBase uint64
}

// newInner builds an inner node over children with its routing scale cached.
// The scale reproduces costmodel.ChildIndex exactly (same float expression),
// so construction-time partitioning and lookup-time routing always agree.
func newInner(lo, hi uint64, children []*node) *node {
	n := &node{lo: lo, hi: hi, fanout: len(children), gateBase: noGate, children: children}
	if span := hi - lo; span > 0 {
		n.scale = float64(n.fanout) / float64(span)
	}
	return n
}

// gate is the retraining bookkeeping for one level-h subtree.
type gate struct {
	id      uint64
	parent  *node
	slot    int
	lo, hi  uint64
	updates atomic.Int64 // inserts+deletes since the last retrain
	keys    atomic.Int64 // key count at the last (re)build
}

// tree is one immutable-shape snapshot of the index structure: the root,
// the gate registry, the interval-lock table sized for it, and the build
// height. Everything that must stay mutually consistent across a full
// rebuild swaps together behind one atomic pointer, so a concurrent reader
// can never pair a new root with a stale lock table.
type tree struct {
	root  *node
	gates []*gate
	locks *ilock.Table
	h     int
}

// fallbackID is the interval-lock slot guarding every path that never
// crosses a gate (empty index, degenerate upper levels). The lock table is
// always sized len(gates)+1 so this slot is real and unshared.
func (t *tree) fallbackID() uint64 { return uint64(len(t.gates)) }

// Index is the Chameleon index. Construct with New; it implements the
// index.Index, index.RangeIndex, and index.StatsProvider interfaces, and
// every method on it is safe for concurrent use.
type Index struct {
	cfg  Config
	env  rl.Env
	tree atomic.Pointer[tree]

	count atomic.Int64 // stored keys

	// Full-reconstruction bookkeeping.
	baseN           atomic.Int64 // key count at the last full (re)build
	updatesSince    atomic.Int64 // inserts+deletes since the last full (re)build
	reconstructions atomic.Int64
	reconstructing  atomic.Bool // single in-flight threshold-triggered rebuild

	// rebuildMu orders structure swaps against mutators: Insert/Delete and
	// RetrainPass hold it shared, BulkLoad/Reconstruct/ReadFrom hold it
	// exclusively while (collecting and) installing a new tree. Read-only
	// operations never take it — a reader on the pre-swap snapshot sees
	// identical contents, because writers are excluded for the whole
	// collect-to-swap window.
	rebuildMu sync.RWMutex

	// lifecycle guards the retrainer goroutine state (stop/done/lastPeriod)
	// and serializes StartRetrainer/StopRetrainer/BulkLoad/Reconstruct/
	// ReadFrom against each other, so concurrent Start/Stop/Close calls and
	// a Close racing a BulkLoad are safe.
	lifecycle    sync.Mutex
	stop         chan struct{}
	done         chan struct{}
	lastPeriod   time.Duration // retrainer period to restore after a rebuild
	retrains     atomic.Int64
	retrainNanos atomic.Int64

	// retrainPanics counts background retrain/reconstruct passes that
	// panicked and were recovered; the retrainer backs off and retries.
	retrainPanics atomic.Int64

	// retrainPaused gates background maintenance without tearing the
	// goroutine down: while set, timer-driven retrain passes and
	// threshold-triggered full reconstructions are skipped so they stop
	// competing with an overloaded foreground write path. Explicit
	// RetrainPass calls are not gated — a caller asking directly gets a pass.
	retrainPaused atomic.Bool

	// fallbackReads counts lookups that exhausted their optimistic retries
	// and took the shared lock. Optimistic hits are deliberately not counted
	// (a shared hit counter would bounce between cores exactly like the lock
	// word this path removes).
	fallbackReads atomic.Uint64
}

var _ index.RangeIndex = (*Index)(nil)
var _ index.StatsProvider = (*Index)(nil)

// New creates an empty index.
func New(cfg Config) *Index {
	cfg = cfg.Defaults()
	env := rl.DefaultEnv()
	env.Tau, env.Alpha = cfg.Tau, cfg.Alpha
	ix := &Index{cfg: cfg, env: env}
	ix.installTree(ix.buildTree(nil, nil, 0), 0)
	return ix
}

// NewChaDATS is the full system of Table V: DARE plus TSMDP refinement. A
// nil policy selects the analytic equivalents (DESIGN.md §4).
func NewChaDATS(dare rl.DAREPolicy, policy rl.FanoutPolicy) *Index {
	cfg := Config{Name: "ChaDATS", Dare: dare, Policy: policy}
	if cfg.Policy == nil {
		cfg.Policy = rl.NewCostPolicy(rl.DefaultEnv())
	}
	return New(cfg)
}

// NewChaDA is the Table V ablation with DARE but no TSMDP: level-h nodes
// become EBH leaves directly.
func NewChaDA(dare rl.DAREPolicy) *Index {
	return New(Config{Name: "ChaDA", Dare: dare})
}

// NewChaB is the Table V ablation with EBH only (no DARE, no TSMDP): a fixed
// upper structure over hash leaves.
func NewChaB() *Index {
	return New(Config{
		Name:   "ChaB",
		Dare:   rl.FixedDARE{Root: 1 << 10},
		Policy: rl.FixedFanout{F: 32, MinSplit: 4096},
	})
}

// Name implements index.Index.
func (ix *Index) Name() string { return ix.cfg.Name }

// Len implements index.Index.
func (ix *Index) Len() int { return int(ix.count.Load()) }

// buildTree constructs a fresh snapshot over the given sorted keys, a
// default DARE search scoring a sample of at most sampleCap keys. It does
// not publish it; callers install via installTree under the appropriate
// locks.
func (ix *Index) buildTree(keys, vals []uint64, sampleCap int) *tree {
	if len(keys) == 0 {
		return &tree{
			root: &node{
				lo: 0, hi: math.MaxUint64, fanout: 1, gateBase: noGate,
				leaf: ebh.New(0, math.MaxUint64, 16, ix.cfg.Tau, ix.cfg.Alpha),
			},
			h:     2,
			locks: ilock.New(1),
		}
	}
	t := &tree{h: heightFor(len(keys))}
	t.root = ix.build(t, keys, vals, sampleCap)
	t.locks = ilock.New(len(t.gates) + 1)
	return t
}

// installTree publishes a snapshot and resets the per-build counters. The
// caller must hold rebuildMu exclusively (or be the constructor, before the
// index is shared). Before publication it enforces the lock-table sizing
// invariant: every snapshot carries a table of len(gates)+1 slots, so
// distinct live interval IDs never alias by modulo (aliased IDs would
// false-conflict — two unrelated hot intervals serializing on one slot).
func (ix *Index) installTree(t *tree, n int) {
	if t.locks == nil || t.locks.Len() < len(t.gates)+1 {
		t.locks = ilock.New(len(t.gates) + 1)
	}
	ix.tree.Store(t)
	ix.count.Store(int64(n))
	ix.baseN.Store(int64(n))
	ix.updatesSince.Store(0)
}

// heightFor is the paper's lower bound on tree height,
// ⌈log_{2^10}(|D|)⌉, floored at 2.
func heightFor(n int) int {
	h := int(math.Ceil(math.Log2(float64(n)) / 10))
	if h < 2 {
		h = 2
	}
	return h
}

// ErrUnsortedKeys is returned by BulkLoad when the key slice is not strictly
// ascending.
var ErrUnsortedKeys = errors.New("core: bulk-load keys must be sorted and unique")

// ErrMismatchedValues is returned by BulkLoad when a value slice is supplied
// whose length differs from the key slice's.
var ErrMismatchedValues = errors.New("core: bulk-load values must match keys in length")
