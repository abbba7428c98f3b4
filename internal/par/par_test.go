package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRun is the pool's contract at every width: each job runs once and
// its result lands in its own slot; a failing run returns the lowest
// failing index's error, which is the serial loop's; width ≤ 1 stops at
// that index; and the serial path allocates nothing. CI runs it at -cpu
// 1,2,4 and under -race.
func TestRun(t *testing.T) {
	errSlow, errFast := errors.New("job 1, after 20 ms"), errors.New("job 5, at once")
	cases := []struct {
		name string
		n    int
		// fail returns job i's error, or nil for a job that succeeds.
		fail func(i int) error
		// want is the serial loop's error; stop the index it stops at.
		want error
		stop int
	}{
		{name: "empty", n: 0},
		{name: "one job", n: 1},
		{name: "all succeed", n: 12},
		{name: "one failure", n: 50, fail: failAt(2, errFast), want: errFast, stop: 2},
		{name: "last fails", n: 9, fail: failAt(8, errFast), want: errFast, stop: 8},
		{
			// A slow low failure must win over a fast high one.
			name: "slow low, fast high", n: 8,
			fail: func(i int) error {
				switch i {
				case 1:
					time.Sleep(20 * time.Millisecond)
					return errSlow
				case 5:
					return errFast
				}
				return nil
			},
			want: errSlow, stop: 1,
		},
	}
	for _, c := range cases {
		for _, width := range []int{-1, 0, 1, 2, 4, 7, 16, c.n + 3} {
			t.Run(fmt.Sprintf("%s/width=%d", c.name, width), func(t *testing.T) {
				out := make([]int, c.n)
				ran := make([]atomic.Int32, c.n)
				err := Run(c.n, width, func(i int) error {
					ran[i].Add(1)
					if c.fail != nil {
						if err := c.fail(i); err != nil {
							return err
						}
					}
					out[i] = 3*i + 1
					return nil
				})
				if err != c.want {
					t.Fatalf("error %v, want %v", err, c.want)
				}
				for i := range out {
					switch r := ran[i].Load(); {
					case r > 1:
						t.Fatalf("job %d ran %d times", i, r)
					case c.want == nil && (r != 1 || out[i] != 3*i+1):
						t.Fatalf("job %d ran %d times and left %d in its slot", i, r, out[i])
					case c.want != nil && i <= c.stop && r != 1:
						t.Fatalf("job %d, at or below the failing %d, ran %d times", i, c.stop, r)
					case c.want != nil && i > c.stop && width <= 1 && r != 0:
						t.Fatalf("serial run went on to job %d after job %d failed", i, c.stop)
					}
				}
			})
		}
	}
	// The per-step engines call Run with a job built once, and their
	// serial steps are pinned allocation-free.
	t.Run("serial path allocates nothing", func(t *testing.T) {
		sum := 0
		job := func(i int) error { sum += i; return nil }
		for _, width := range []int{0, 1, 4} {
			n := 16
			if width > 1 {
				n = 1 // one job runs on the caller at any width
			}
			if a := testing.AllocsPerRun(100, func() { _ = Run(n, width, job) }); a != 0 {
				t.Fatalf("%d jobs at width %d: %v allocations per run", n, width, a)
			}
		}
	})
}

func failAt(k int, err error) func(int) error {
	return func(i int) error {
		if i == k {
			return err
		}
		return nil
	}
}
