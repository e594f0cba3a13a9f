package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/wire"
)

// target is the store an op runs against: the embedded handle or a remote
// client. Both check every reply against what the stream says is correct.
type target interface {
	get(key uint64) (val uint64, found bool, err error)
	insert(key, val uint64) error
	delete(key uint64) error
	scan(lo, hi uint64, limit int) ([]wire.Pair, error)
}

type embedTarget struct{ ix *chameleon.DurableIndex }

func (t embedTarget) get(key uint64) (uint64, bool, error) {
	v, ok := t.ix.Lookup(key)
	return v, ok, nil
}
func (t embedTarget) insert(key, val uint64) error { return t.ix.Insert(key, val) }
func (t embedTarget) delete(key uint64) error      { return t.ix.Delete(key) }
func (t embedTarget) scan(lo, hi uint64, limit int) ([]wire.Pair, error) {
	pairs := make([]wire.Pair, 0, limit)
	t.ix.Range(lo, hi, func(k, v uint64) bool {
		pairs = append(pairs, wire.Pair{Key: k, Val: v})
		return len(pairs) < limit
	})
	return pairs, nil
}

type remoteTarget struct {
	ctx context.Context // expires at the run's hard timeout: a hung op fails, it does not hang the run
	c   *client.Client
}

func (t remoteTarget) get(key uint64) (uint64, bool, error) { return t.c.Get(t.ctx, key) }
func (t remoteTarget) insert(key, val uint64) error         { return t.c.Insert(t.ctx, key, val) }
func (t remoteTarget) delete(key uint64) error              { return t.c.Delete(t.ctx, key) }
func (t remoteTarget) scan(lo, hi uint64, limit int) ([]wire.Pair, error) {
	pairs, _, err := t.c.Range(t.ctx, lo, hi, limit)
	return pairs, err
}

// do runs one op and returns "" when the reply is what the stream demands,
// else what was wrong with it.
func do(t target, o op) string {
	switch o.kind {
	case opGet:
		val, found, err := t.get(o.key)
		switch {
		case err != nil:
			return fmt.Sprintf("get %d: %v", o.key, err)
		case found != o.present:
			return fmt.Sprintf("get %d: found=%v, want %v", o.key, found, o.present)
		case found && val != o.key^valueSalt:
			return fmt.Sprintf("get %d: value %#x, want %#x", o.key, val, o.key^valueSalt)
		}
	case opInsert:
		if err := t.insert(o.key, o.key^valueSalt); err != nil {
			return fmt.Sprintf("insert %d: %v", o.key, err)
		}
	case opDelete:
		if err := t.delete(o.key); err != nil {
			return fmt.Sprintf("delete %d: %v", o.key, err)
		}
	case opRange:
		pairs, err := t.scan(o.key, o.hi, rangeLen)
		if err != nil {
			return fmt.Sprintf("range %d: %v", o.key, err)
		}
		if len(pairs) != rangeLen || pairs[0].Key != o.key {
			return fmt.Sprintf("range %d: %d pairs, want %d starting at the bound", o.key, len(pairs), rangeLen)
		}
		for i, p := range pairs {
			if p.Key > o.hi || i > 0 && p.Key <= pairs[i-1].Key {
				return fmt.Sprintf("range %d: pair %d out of order or out of bounds", o.key, i)
			}
			if p.Val != p.Key^valueSalt {
				return fmt.Sprintf("range %d: pair %d has value %#x, want %#x", o.key, i, p.Val, p.Key^valueSalt)
			}
		}
	default:
		return "op stream exhausted: more inserts than fresh keys"
	}
	return ""
}

// sampleEvery is how often the single embedded caller times an op (and looks
// at the clock at all): ~1 op in 64, and coprime to period so every slot of
// the op pattern is sampled equally.
const sampleEvery = 63

// runWindow issues ops [start, limit) of the stream from `callers` closed-loop
// goroutines that pull the next index from one shared counter, so they all
// finish together. It stops early if `timeout` (> 0) passes first: the caller
// treats a window that did not reach limit as failed. With one caller every
// sampleEvery-th op is timed; with more, every op is. tr, when non-nil and on,
// gets a span per timed op.
func runWindow(t target, s *stream, callers int, start, limit uint64, timeout time.Duration, tr *tracer) *window {
	var next atomic.Uint64
	next.Store(start)
	began := time.Now()
	var deadline time.Time
	if timeout > 0 {
		deadline = began.Add(timeout)
	}
	// stamps[k] is when the op that opens the k-th tenth of the window was
	// claimed.
	sliceOps := (limit - start) / numSlices
	var stamps [numSlices]atomic.Int64
	every := uint64(1)
	if callers == 1 {
		every = sampleEvery
	}
	caller := func(rec *recorder) {
		for {
			i := next.Add(1) - 1
			if i >= limit {
				next.Add(^uint64(0))
				return
			}
			if sliceOps > 0 && (i-start)%sliceOps == 0 && (i-start)/sliceOps < numSlices {
				stamps[(i-start)/sliceOps].Store(time.Since(began).Nanoseconds())
			}
			o := s.at(i)
			if i%every != 0 {
				if msg := do(t, o); msg != "" {
					rec.fail(msg)
				}
				continue
			}
			t0 := time.Now()
			msg := do(t, o)
			t1 := time.Now()
			rec.observe(classOf(o.kind), t1.Sub(t0))
			if tr != nil {
				tr.request(o, i, t0, t1)
			}
			if msg != "" {
				rec.fail(msg)
				if o.kind == opExhausted {
					return
				}
			}
			if timeout > 0 && t1.After(deadline) {
				return
			}
		}
	}
	recs := make([]*recorder, callers)
	for c := range recs {
		recs[c] = &recorder{}
	}
	var wg sync.WaitGroup
	for _, rec := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			caller(rec)
		}()
	}
	wg.Wait()
	w := &window{Start: start, Next: next.Load(), Limit: limit, ElapsedNS: time.Since(began).Nanoseconds()}
	if w.Next == limit {
		for k := range w.SliceNS {
			end := w.ElapsedNS
			if k+1 < numSlices {
				end = stamps[k+1].Load()
			}
			w.SliceNS[k] = end - stamps[k].Load()
		}
	}
	summarize(w, recs)
	return w
}
