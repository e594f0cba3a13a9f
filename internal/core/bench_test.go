package core

import (
	"testing"

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
