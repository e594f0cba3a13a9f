// Package chameleon is an update-efficient learned index for locally skewed
// data, a from-scratch Go implementation of the Chameleon index (ICDE 2024).
//
// A Chameleon index maps uint64 keys to uint64 values through a shallow tree
// whose inner nodes route with exact linear interpolation and whose leaves
// are Error Bounded Hashing (EBH) nodes — hash tables whose capacity is
// sized so the collision probability stays below a target τ, with the
// maximum placement offset recorded so lookups probe a bounded window. The
// structure is chosen by the paper's multi-agent construction, with each
// agent's Q-network replaced by the cost model it approximates: a DARE
// policy shapes the upper levels from the global distribution and a TSMDP
// policy refines each lower subtree from its local distribution. A
// background retraining goroutine, synchronized through per-interval locks,
// keeps the structure healthy under sustained inserts and deletes without
// blocking foreground operations.
//
// An Index is safe for concurrent use by multiple goroutines. The interval
// locks are reader-shared and writer-exclusive: any number of Lookup and
// Range calls proceed in parallel on the same interval, while Insert, Delete,
// and background retraining take their interval exclusively — concurrent
// readers scale without ever observing a half-retrained subtree.
//
// Quick start:
//
//	ix := chameleon.New(chameleon.Options{})
//	if err := ix.BulkLoad(sortedKeys, nil); err != nil { ... }
//	v, ok := ix.Lookup(k)
//	_ = ix.Insert(k2, v2)
//	ix.StartRetrainer(10 * time.Second)
//	defer ix.Close()
package chameleon

import (
	"io"
	"os"
	"time"

	"chameleon/internal/core"
	"chameleon/internal/faultfs"
	"chameleon/internal/index"
	"chameleon/internal/rl"
)

// Options configures a Chameleon index. The zero value selects the paper's
// defaults (τ = 0.45, α = 131, cost-model construction policies).
type Options struct {
	// RetrainEvery, when positive, starts the background retrainer
	// automatically after each BulkLoad with this period. It does nothing
	// for a tiered directory's memtable (DirOptions.Tiered), which runs no
	// retrainer.
	RetrainEvery time.Duration
	// ReconstructThreshold triggers a full MARL reconstruction once
	// cumulative updates exceed this multiple of the built size (the
	// paper's complete-rebuild threshold). Zero selects the default of 4;
	// a negative value disables reconstruction.
	ReconstructThreshold float64
	// Workers bounds the goroutines used by parallel bulk load — the
	// construction search that chooses the upper levels, and the build of
	// every level-h subtree below them — and by a snapshot load's leaf
	// restores. Zero means one per available CPU; 1 forces the serial path.
	// The built structure is bit-identical for any worker count.
	Workers int
}

// Index is the public handle. Construct with New.
type Index struct {
	inner *core.Index
	opts  Options
}

// Stats re-exports the structural metrics (Table V of the paper).
type Stats = index.Stats

// Error sentinels re-exported from the shared index contract.
var (
	ErrKeyNotFound  = index.ErrKeyNotFound
	ErrDuplicateKey = index.ErrDuplicateKey
	// ErrUnsortedKeys is returned by BulkLoad when keys are not strictly
	// ascending; ErrMismatchedValues when vals is non-nil with a different
	// length than keys.
	ErrUnsortedKeys     = core.ErrUnsortedKeys
	ErrMismatchedValues = core.ErrMismatchedValues
)

// New creates an empty index.
func New(opts Options) *Index {
	cfg := core.Config{
		RetrainEvery:         opts.RetrainEvery,
		ReconstructThreshold: opts.ReconstructThreshold,
		Workers:              opts.Workers,
		Policy:               rl.NewCostPolicy(rl.DefaultEnv()),
	}
	return &Index{inner: core.New(cfg), opts: opts}
}

// BulkLoad (re)builds the index from keys sorted ascending with no
// duplicates; vals may be nil (value = key). If Options.RetrainEvery is set,
// the background retrainer is (re)started.
func (ix *Index) BulkLoad(keys, vals []uint64) error {
	ix.inner.StopRetrainer()
	if err := ix.inner.BulkLoad(keys, vals); err != nil {
		return err
	}
	if ix.opts.RetrainEvery > 0 {
		ix.inner.StartRetrainer(ix.opts.RetrainEvery)
	}
	return nil
}

// Lookup returns the value stored for key.
func (ix *Index) Lookup(key uint64) (uint64, bool) { return ix.inner.Lookup(key) }

// LookupBatch resolves keys[i] into vals[i], found[i] against one tree
// snapshot — the batched form the server's GET coalescing uses. vals and
// found must be at least len(keys) long.
func (ix *Index) LookupBatch(keys, vals []uint64, found []bool) {
	ix.inner.LookupBatch(keys, vals, found)
}

// ReadFallbacks reports how many lookups exhausted their optimistic retries
// and fell back to the shared interval lock.
func (ix *Index) ReadFallbacks() uint64 { return ix.inner.ReadFallbacks() }

// Insert adds key→val; it returns ErrDuplicateKey if key is present.
func (ix *Index) Insert(key, val uint64) error { return ix.inner.Insert(key, val) }

// Delete removes key; it returns ErrKeyNotFound if absent.
func (ix *Index) Delete(key uint64) error { return ix.inner.Delete(key) }

// Range calls fn for every key in [lo, hi] in ascending order until fn
// returns false. It streams the window one interval (a level-h subtree) at
// a time: the interval's leaves are copied as one cut (optimistically, else
// under its read lock), then each leaf's copy is sorted, since EBH leaves
// are unordered, and emitted. fn runs with no lock held, an early stop stops
// reading, and each interval is seen atomically, though the scan as a whole
// is not a snapshot (DESIGN.md §13).
func (ix *Index) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	ix.inner.Range(lo, hi, fn)
}

// Len reports the number of stored keys.
func (ix *Index) Len() int { return ix.inner.Len() }

// Bytes estimates resident size in bytes.
func (ix *Index) Bytes() int { return ix.inner.Bytes() }

// Stats reports the structural metrics of the paper's Table V.
func (ix *Index) Stats() Stats { return ix.inner.Stats() }

// Height reports the deepest root-to-leaf path length.
func (ix *Index) Height() int { return ix.inner.Height() }

// LocalSkewness computes the lsn statistic (Definition 3) over the current
// contents.
func (ix *Index) LocalSkewness() float64 { return ix.inner.LocalSkewness() }

// StartRetrainer launches the background retraining goroutine with the given
// period (Section V; the paper evaluates 10s). No-op if already running.
func (ix *Index) StartRetrainer(period time.Duration) { ix.inner.StartRetrainer(period) }

// PauseRetrainer suspends background maintenance (timer-driven retrain passes
// and threshold-triggered full reconstructions) without stopping the
// goroutine — a cheap atomic flip the durable layer uses while its write
// queue is saturated, so structural maintenance stops competing with
// foreground writes. Resume with ResumeRetrainer.
func (ix *Index) PauseRetrainer() { ix.inner.PauseRetrainer() }

// ResumeRetrainer re-enables background maintenance after PauseRetrainer.
func (ix *Index) ResumeRetrainer() { ix.inner.ResumeRetrainer() }

// RetrainStats reports how many subtree retrains have run and the total time
// spent retraining.
func (ix *Index) RetrainStats() (count int64, total time.Duration) {
	return ix.inner.RetrainStats()
}

// Reconstructions reports how many full MARL rebuilds the update-threshold
// trigger has run (see Options.ReconstructThreshold).
func (ix *Index) Reconstructions() int { return ix.inner.Reconstructions() }

// Close stops the retrainer. The index remains usable for foreground
// operations afterwards.
func (ix *Index) Close() error {
	ix.inner.StopRetrainer()
	return nil
}

// WriteTo serializes the learned structure — tree shape, gates and leaf
// geometry; leaf slots are re-placed on load — so a later ReadFrom restores
// it without retraining. It is safe alongside writers and the retrainer: the
// walk holds the rebuild lock shared and copies each gate's subtree under
// that interval's read lock, so every interval is captured atomically. The
// file is consistent per interval, not one instant across all of them;
// quiesce writers first for that.
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return ix.inner.WriteTo(w) }

// ReadFrom replaces the index contents with a structure written by WriteTo.
// The configured construction policies are kept for future retraining, and —
// exactly as after BulkLoad — the background retrainer is (re)started when
// Options.RetrainEvery is set. On error the index is left unchanged.
func (ix *Index) ReadFrom(r io.Reader) (int64, error) {
	n, err := ix.inner.ReadFrom(r)
	if err != nil {
		return n, err
	}
	if ix.opts.RetrainEvery > 0 {
		ix.inner.StartRetrainer(ix.opts.RetrainEvery)
	}
	return n, nil
}

// Save writes the index to a file; Load restores it. Like a checkpoint, it
// writes a temporary file, fsyncs it, renames it over path and fsyncs the
// directory, so an interrupted Save leaves the previous file intact.
func (ix *Index) Save(path string) error { return ix.save(faultfs.OS, path) }

func (ix *Index) save(fsys faultfs.FS, path string) error {
	return writeFileAtomic(fsys, path, func(w io.Writer) error {
		_, err := ix.WriteTo(w)
		return err
	})
}

// Load restores an index saved with Save into a new Index with the given
// options.
func Load(path string, opts Options) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ix := New(opts)
	if _, err := ix.ReadFrom(f); err != nil {
		return nil, err
	}
	return ix, nil
}
