// Package par is the repository's one fan-out: it runs n independent jobs
// on a bounded set of goroutines under the rule of DESIGN.md §8, that
// nothing a caller observes depends on the width. A job writes only its
// own output slot, so the results are the serial loop's at any width, and
// Run returns the serial loop's error too.
package par

import (
	"sync"
	"sync/atomic"
)

// Run calls job(i) for every i in [0, n) on min(width, n) goroutines that
// claim indices in increasing order, and waits for them. Once a job fails
// no new index is claimed, and Run returns the lowest failing index's
// error: every lower index was claimed before it and runs to completion,
// so that is the error the serial loop returns, at any width. At width ≤ 1
// every job runs on the caller, with no goroutine and no allocation.
func Run(n, width int, job func(i int) error) error {
	if width = min(width, n); width <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	// The caller only waits: a caller that worked too would park the one
	// new goroutine of width 2 in its own run-next slot, where an idle P
	// steals it only after a delay longer than a microsecond-sized job.
	// The state the workers share is one struct, so one allocation.
	var p struct {
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		lowest  int
		err     error
	}
	p.lowest = n
	p.wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer p.wg.Done()
			for !p.stopped.Load() {
				i := int(p.next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := job(i); err != nil {
					p.stopped.Store(true)
					p.mu.Lock()
					if i < p.lowest {
						p.lowest, p.err = i, err
					}
					p.mu.Unlock()
					return
				}
			}
		}()
	}
	p.wg.Wait()
	return p.err
}
