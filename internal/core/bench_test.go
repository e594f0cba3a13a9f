package core

import (
	"bytes"
	"io"
	"testing"

	"chameleon/internal/dataset"
	"chameleon/internal/rl"
)

// BenchmarkInsertDenseRuns times inserts of eight dense key runs w<<32|i
// into an empty index, interleaved as eight writers each filling its own
// run would send them. In the stretched row, 64 far keys 1<<63|i go in
// first, so the leaf the runs land in covers a key space far wider than
// the runs themselves (ROADMAP item 7's dense run in a wide interval). No
// reconstruction runs, so the leaves stay as the inserts shape them.
// ns/op and allocs/op are per insert; the index is rebuilt, untimed, each
// time the 40,000-key stream runs out.
func BenchmarkInsertDenseRuns(b *testing.B) {
	const writers, perWriter = 8, 5000
	stream := make([]uint64, 0, writers*perWriter)
	for i := range uint64(perWriter) {
		for w := range uint64(writers) {
			stream = append(stream, w<<32|i)
		}
	}
	for _, tc := range []struct {
		name string
		far  uint64
	}{{"plain", 0}, {"stretched", 64}} {
		b.Run(tc.name, func(b *testing.B) {
			var ix *Index
			next := len(stream)
			b.ReportAllocs()
			for range b.N {
				if next == len(stream) {
					b.StopTimer()
					dcfg := rl.DefaultDAREConfig()
					ix = New(Config{Dare: rl.NewCostDARE(dcfg), Policy: rl.NewCostPolicy(dcfg.Env), ReconstructThreshold: -1})
					for i := range tc.far {
						if err := ix.Insert(1<<63|i, 0); err != nil {
							b.Fatal(err)
						}
					}
					next = 0
					b.StartTimer()
				}
				if err := ix.Insert(stream[next], 0); err != nil {
					b.Fatal(err)
				}
				next++
			}
		})
	}
}

// decided is a DAREPolicy that returns parameters decided before.
type decided struct{ p0, g int }

func (d decided) Parameters([]uint64, int) (int, int) { return d.p0, d.g }

// BenchmarkBulkLoadPhases times the phases of a legacy start over FACE keys
// (2 M, or 400 k under -short), each reported in ns per key: grid is the
// construction search (CostDARE.Parameters), build the BulkLoad with the
// search's parameters fixed, write the snapshot's WriteTo to io.Discard and
// read its ReadFrom into a fresh index. Every phase runs one worker per
// GOMAXPROCS, so -cpu 1,2 sets the serial and the parallel paths side by
// side.
func BenchmarkBulkLoadPhases(b *testing.B) {
	n := 2_000_000
	if testing.Short() {
		n = 400_000
	}
	keys := dataset.Generate(dataset.FACE, n, 42)
	h := heightFor(n)
	dare := rl.NewCostDARE(rl.DefaultDAREConfig())
	p0, g := dare.Parameters(keys, h)
	newIndex := func() *Index {
		return New(Config{Dare: decided{p0, g}, Policy: rl.NewCostPolicy(rl.DefaultEnv())})
	}
	built := newIndex()
	if err := built.BulkLoad(keys, nil); err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := built.WriteTo(&snap); err != nil {
		b.Fatal(err)
	}
	phases := []struct {
		name string
		run  func(b *testing.B)
	}{
		{"grid", func(*testing.B) { dare.Parameters(keys, h) }},
		{"build", func(b *testing.B) {
			if err := newIndex().BulkLoad(keys, nil); err != nil {
				b.Fatal(err)
			}
		}},
		{"write", func(b *testing.B) {
			if _, err := built.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}},
		{"read", func(b *testing.B) {
			if _, err := newIndex().ReadFrom(bytes.NewReader(snap.Bytes())); err != nil {
				b.Fatal(err)
			}
		}},
	}
	for _, ph := range phases {
		b.Run(ph.name, func(b *testing.B) {
			for range b.N {
				ph.run(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
		})
	}
}
