package experiments

import (
	"runtime"

	"repro/internal/par"
)

// MaxWorkers caps the concurrency of every worker pool in this package
// (Compare's evaluation runs, the ablation grids, and RunJobs). 0 — the
// default — means runtime.NumCPU(). Set it once at startup, e.g. from a
// -workers flag; it is read when a pool starts and is not synchronized
// against concurrent mutation.
var MaxWorkers int

// poolWidth resolves a requested worker count against MaxWorkers and the
// job count: requested 0 means "auto" (all CPUs up to the cap).
func poolWidth(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = MaxWorkers
		if w <= 0 {
			w = runtime.NumCPU()
		}
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunJobs runs job(i) for every i in [0, n) on the job pool at width
// poolWidth(workers, n) (workers <= 0 selects the MaxWorkers/NumCPU
// default) and returns the lowest failing index's error, as a serial loop
// would. Jobs must be independent and deterministic given their index and
// write only their own output slot; the results are then identical at any
// worker count (DESIGN.md §8).
func RunJobs(n, workers int, job func(i int) error) error {
	return par.Run(n, poolWidth(workers, n), job)
}
