package main

import (
	"fmt"
	"sort"
	"time"

	"repro/perfbench/stat"
)

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// percentile is the nearest-rank p-quantile of an unsorted sample.
func percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return stat.Nearest(s, p)
}

// tailSupported fails a run whose sample is too small for a p99 with ten
// samples beyond it.
func tailSupported(n int) error {
	if stat.TailPercentile(n) < 0.99 {
		return fmt.Errorf("%d samples do not support a p99 (need ten beyond it)", n)
	}
	return nil
}

// printSpans prints one line per span name: count, mean, self time and
// share of the traced wall time.
func printSpans(workload string, st map[string]spanStats, wall time.Duration) {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s spans over %.3fs traced wall time:\n", workload, wall.Seconds())
	for _, n := range names {
		s := st[n]
		fmt.Printf("  %-16s n=%-8d mean %10.2fus  self %8.3fs  share %6.2f%%\n",
			n, s.n, s.meanUS(), s.self.Seconds(), 100*float64(s.total)/float64(wall))
	}
}
