package env_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/fl"
	"repro/internal/guard/chaos"
	"repro/internal/trace"
)

// wavySystem builds a system whose device i replays a trace of lengths[i]
// one-second samples (so a 10 s slot has period lengths[i]/10 when that is
// an integer).
func wavySystem(lengths ...int) *fl.System {
	devs := device.MustNewFleet(len(lengths), device.FleetParams{}, 1)
	traces := make([]*trace.Trace, len(lengths))
	for i, n := range lengths {
		traces[i] = wavyTrace(fmt.Sprintf("d%d", i), n, float64(i+1))
	}
	return &fl.System{Devices: devs, Traces: traces, Tau: 1, ModelBytes: 25e6, Lambda: 1}
}

// wavyTrace is a non-repeating bandwidth pattern of n samples, with a zero
// every 17 samples so slot averages take uneven values.
func wavyTrace(name string, n int, phase float64) *trace.Trace {
	s := make([]float64, n)
	for i := range s {
		if i%17 != 0 {
			s[i] = 1e6 * (2 + math.Sin(0.37*float64(i)+phase) + 0.01*float64(i%7))
		}
	}
	return trace.MustNew(name, 1, s)
}

// checkState compares every device's state block, by bits, with the
// device's own trace.History divided by BWScale — the per-trace definition
// of s_k the slot-major table must reproduce — through both BuildState and
// a reused BuildStateInto buffer.
func checkState(t *testing.T, sys *fl.System, cfg env.Config, clocks []float64) {
	t.Helper()
	var dst []float64
	var scratch []float64
	w := cfg.History + 1
	for _, clock := range clocks {
		fresh, _ := env.BuildStateInto(nil, nil, sys, clock, cfg)
		dst, scratch = env.BuildStateInto(dst, scratch, sys, clock, cfg)
		for i, tr := range sys.Traces {
			for k, b := range tr.History(clock, cfg.SlotSec, cfg.History) {
				want := math.Float64bits(b / cfg.BWScale)
				if got := math.Float64bits(fresh[i*w+k]); got != want {
					t.Fatalf("clock %v h %v: BuildState device %d slot -%d = %v, want %v",
						clock, cfg.SlotSec, i, k, fresh[i*w+k], b/cfg.BWScale)
				}
				if got := math.Float64bits(dst[i*w+k]); got != want {
					t.Fatalf("clock %v h %v: BuildStateInto device %d slot -%d = %v, want %v",
						clock, cfg.SlotSec, i, k, dst[i*w+k], b/cfg.BWScale)
				}
			}
		}
	}
}

// stateClocks spans clocks before H·h (negative slot indices), inside the
// first cycles, at cycle boundaries and many cycles out.
func stateClocks(cycle float64) []float64 {
	out := []float64{0, 3.7, 9.999, 10, 49.5, 55, 120, cycle - 0.25, cycle, cycle + 10}
	for _, k := range []float64{3, 17, 1e3, 1e6, 1e9} {
		out = append(out, k*cycle+31.5, k*cycle-5)
	}
	return append(out, 123456789.125, 4.5e12)
}

func TestStateMatchesTraceHistory(t *testing.T) {
	cfg := env.DefaultConfig()

	t.Run("common period", func(t *testing.T) {
		sys := wavySystem(300, 300, 300)
		checkState(t, sys, cfg, stateClocks(300))
		if sys.SlotTable(cfg.SlotSec) == nil {
			t.Fatal("equal periods built no slot table")
		}
	})
	t.Run("different periods", func(t *testing.T) {
		// Periods of 30, 20 and 12 slots: the table spans lcm = 60 rows.
		sys := wavySystem(300, 200, 120)
		checkState(t, sys, cfg, stateClocks(600))
		if sys.SlotTable(cfg.SlotSec) == nil {
			t.Fatal("commensurate periods built no slot table")
		}
	})
	t.Run("width without a period", func(t *testing.T) {
		sys := wavySystem(300, 200)
		c := cfg
		c.SlotSec = 7 // 300/7 slots is not an integer
		if sys.SlotTable(c.SlotSec) != nil {
			t.Fatal("aperiodic width built a slot table")
		}
		checkState(t, sys, c, stateClocks(300))
		// One aperiodic trace leaves the whole set without a table.
		mixed := wavySystem(300, 205)
		if mixed.SlotTable(cfg.SlotSec) != nil {
			t.Fatal("set with an aperiodic trace built a slot table")
		}
		checkState(t, mixed, cfg, stateClocks(300))
	})
	t.Run("trace replaced after first use", func(t *testing.T) {
		sys := wavySystem(300, 300, 300)
		checkState(t, sys, cfg, stateClocks(300))
		sys.Traces[1] = wavyTrace("swapped", 300, 9)
		checkState(t, sys, cfg, stateClocks(300))
		sys.Traces[2] = wavyTrace("shorter", 150, 4)
		checkState(t, sys, cfg, stateClocks(300))
		sys.Traces[0] = wavyTrace("aperiodic", 155, 2)
		checkState(t, sys, cfg, stateClocks(300))
		if sys.SlotTable(cfg.SlotSec) != nil {
			t.Fatal("table survived an aperiodic replacement")
		}
		sys.Traces = []*trace.Trace{wavyTrace("x", 100, 1), wavyTrace("y", 100, 2), wavyTrace("z", 100, 3)}
		checkState(t, sys, cfg, stateClocks(100))
	})
	t.Run("width changed on one system", func(t *testing.T) {
		sys := wavySystem(300, 200, 120)
		for _, h := range []float64{10, 20, 5, 10, 7, 20} {
			c := cfg
			c.SlotSec = h
			checkState(t, sys, c, stateClocks(600))
		}
	})
	t.Run("chaos clones", func(t *testing.T) {
		sys := wavySystem(300, 200, 120)
		checkState(t, sys, cfg, stateClocks(600))
		for _, cl := range chaos.Classes() {
			mutated, err := cl.Mutate(sys, 11)
			if err != nil {
				t.Fatalf("%s: %v", cl.Name, err)
			}
			checkState(t, mutated, cfg, stateClocks(600))
		}
		checkState(t, sys, cfg, stateClocks(600))
	})
}

// TestBuildStateConcurrentFirstUse builds states from several goroutines on
// one System whose slot table does not exist yet, so the goroutines race to
// build and install it (and, at two widths, to replace it). Every state must still equal the per-trace
// definition; CI runs this under -race.
func TestBuildStateConcurrentFirstUse(t *testing.T) {
	cfg := env.DefaultConfig()
	ref := wavySystem(300, 200, 120, 300)
	clocks := stateClocks(600)
	want := make([][]float64, len(clocks))
	for c, clock := range clocks {
		want[c], _ = env.BuildStateInto(nil, nil, ref, clock, cfg)
	}
	for round := 0; round < 4; round++ {
		sys := wavySystem(300, 200, 120, 300)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c := cfg
				if g%3 == 2 {
					c.SlotSec = 20 // a second width replaces the table concurrently
				}
				var dst, scratch []float64
				for i := range clocks {
					k := (i + g) % len(clocks)
					dst, scratch = env.BuildStateInto(dst, scratch, sys, clocks[k], c)
					exp := want[k]
					if c.SlotSec != cfg.SlotSec {
						exp, _ = env.BuildStateInto(nil, nil, ref, clocks[k], c)
					}
					for j := range exp {
						if math.Float64bits(dst[j]) != math.Float64bits(exp[j]) {
							errs <- fmt.Errorf("goroutine %d clock %v h %v: state[%d] = %v, want %v",
								g, clocks[k], c.SlotSec, j, dst[j], exp[j])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
