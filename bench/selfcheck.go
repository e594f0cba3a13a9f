package main

import (
	"fmt"
	"os"
)

// selfcheckPasses is the number of complete passes over the selected
// workloads: A B A B.
const selfcheckPasses = 4

// selfcheck applies the pipeline's own acceptance test locally: two sets of
// runs of the same code, taken in alternation, must have medians that agree
// within each end-to-end metric's bound. It returns the process exit code and
// names every metric that does not.
func (b *bench) selfcheck(selected []*workload, seed uint64, secs int) int {
	// values[workload][metric][set] are that set's runs.
	values := make(map[string]map[string][2][]float64)
	for pass := 0; pass < selfcheckPasses; pass++ {
		set := pass % 2
		for _, w := range selected {
			res, err := b.run(w, seed, secs, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chameleon-benchmark: %s: %v\n", w.name, err)
				return 1
			}
			fmt.Printf("pass %d (set %c)\n", pass+1, 'A'+set)
			res.print(os.Stdout)
			if !res.Correct {
				fmt.Printf("selfcheck FAILED: %s had %d failed of %d attempted\n", w.name, res.Failed, res.Attempted)
				return 1
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][2][]float64)
			}
			for name, v := range res.values {
				sets := values[w.name][name]
				sets[set] = append(sets[set], v)
				values[w.name][name] = sets
			}
		}
	}
	code := 0
	for _, w := range selected {
		for _, m := range b.spec.EndToEnd {
			sets := values[w.name][m.Name]
			a, bb := median(sets[0]), median(sets[1])
			// How much worse the worse set is, as a share of the better one.
			lo, hi := min(a, bb), max(a, bb)
			base := lo
			if m.Better == "higher" {
				base = hi
			}
			diff := ratio(hi-lo, base)
			verdict := "ok"
			if diff > m.Bound {
				verdict = "FAILED"
				code = 1
			}
			fmt.Printf("selfcheck %-18s %-24s A %14.4f  B %14.4f  differ %5.1f%%  bound %4.0f%%  %s\n", w.name, m.Name, a, bb, diff*100, m.Bound*100, verdict)
		}
	}
	return code
}
