package hier

import (
	"math"
	"testing"

	"repro/internal/fl"
)

// testFleet draws a small aligned-phase fleet usable by both engines.
func testFleet(t *testing.T, n int, seed int64) *Fleet {
	t.Helper()
	f, err := NewFleet(n, FleetOptions{PoolSize: 8, TraceSec: 600, AlignPhases: true}, seed)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	return f
}

// TestHierMatchesFlatBitIdentical is the tentpole's differential gate: with
// one region, full cohorts and M = all, the hierarchical engine must
// reproduce the flat synchronous engine bit-for-bit — same Duration, same
// energy split, same Cost, same clock — over a multi-step run with varying
// frequency fractions. Any FP reordering in the region loop breaks this.
func TestHierMatchesFlatBitIdentical(t *testing.T) {
	const (
		n          = 40
		tau        = 2
		modelBytes = 5e5
		lambda     = 1e-3
		steps      = 12
	)
	fleet := testFleet(t, n, 31)
	sys, err := fleet.System(tau, modelBytes, lambda)
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	ses, err := fl.NewSession(sys, 0)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	top, err := EvenTopology(n, 1)
	if err != nil {
		t.Fatalf("EvenTopology: %v", err)
	}
	eng, err := NewEngine(fleet, top, Config{
		Tau: tau, ModelBytes: modelBytes, Lambda: lambda,
		CohortFrac: 1, MinArrivals: 0, // synchronous: wait for the single region
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	freqs := make([]float64, n)
	for k := 0; k < steps; k++ {
		frac := 0.3 + 0.05*float64(k)
		for i, d := range sys.Devices {
			freqs[i] = frac * d.MaxFreqHz
		}
		flat, err := ses.StepInto(freqs)
		if err != nil {
			t.Fatalf("step %d: flat: %v", k, err)
		}
		h, err := eng.StepInto(FixedPlanner{Frac: frac})
		if err != nil {
			t.Fatalf("step %d: hier: %v", k, err)
		}
		// == on float64, not a tolerance: the contract is bit-identity.
		if h.Index != flat.Index || h.StartTime != flat.StartTime || h.Duration != flat.Duration ||
			h.ComputeEnergy != flat.ComputeEnergy || h.TxEnergy != flat.TxEnergy || h.Cost != flat.Cost {
			t.Fatalf("step %d diverged:\nhier %+v\nflat %+v", k, h, flat)
		}
		if h.Participants != n || h.OnTime != 1 || h.Late != 0 || h.StaleApplied != 0 {
			t.Fatalf("step %d: unexpected semi-async stats in sync mode: %+v", k, h)
		}
		if eng.Clock() != ses.Clock {
			t.Fatalf("step %d: clock diverged: hier %v flat %v", k, eng.Clock(), ses.Clock)
		}
	}
}

// TestWorkerCountInvariance pins the PR 1 determinism invariant at the new
// layer: every worker count must produce bit-identical global stats, cohort
// draws included.
func TestWorkerCountInvariance(t *testing.T) {
	const (
		n     = 300
		steps = 10
	)
	cfgFor := func(workers int) Config {
		return Config{
			Tau: 1, ModelBytes: 3e5, Lambda: 1e-3,
			CohortFrac: 0.5, MinArrivals: 5, StalenessBeta: 0.5,
			EdgeLatencySec: 2, Workers: workers, Seed: 99,
		}
	}
	run := func(workers int) []GlobalStats {
		fleet, err := NewFleet(n, FleetOptions{PoolSize: 16, TraceSec: 600}, 7)
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		top, err := EvenTopology(n, 8)
		if err != nil {
			t.Fatalf("EvenTopology: %v", err)
		}
		eng, err := NewEngine(fleet, top, cfgFor(workers))
		if err != nil {
			t.Fatalf("NewEngine(workers=%d): %v", workers, err)
		}
		out := make([]GlobalStats, steps)
		for k := range out {
			st, err := eng.StepInto(FixedPlanner{Frac: 0.6})
			if err != nil {
				t.Fatalf("workers=%d step %d: %v", workers, k, err)
			}
			out[k] = st
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 16} {
		got := run(workers)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("workers=%d step %d diverged:\ngot  %+v\nwant %+v", workers, k, got[k], want[k])
			}
		}
	}
}

// TestSemiAsyncCommitsEarlyAndBuffersLate makes one region pathologically
// slow and checks the protocol semantics: the commit happens at the M-th
// arrival (faster than the full barrier), the slow region is late, and its
// update is eventually incorporated with positive staleness at β-decayed
// weight.
func TestSemiAsyncCommitsEarlyAndBuffersLate(t *testing.T) {
	const (
		n       = 120
		regions = 4
	)
	build := func(minArrivals int) *Engine {
		fleet, err := NewFleet(n, FleetOptions{PoolSize: 8, TraceSec: 600}, 13)
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		top, err := EvenTopology(n, regions)
		if err != nil {
			t.Fatalf("EvenTopology: %v", err)
		}
		// Last region trains 8× more data: its rounds dominate the barrier.
		lo, hi := top.Region(regions - 1)
		for i := lo; i < hi; i++ {
			fleet.DataBits[i] *= 8
		}
		eng, err := NewEngine(fleet, top, Config{
			Tau: 1, ModelBytes: 3e5, Lambda: 1e-3,
			CohortFrac: 1, MinArrivals: minArrivals, StalenessBeta: 0.5, Seed: 5,
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		return eng
	}

	sync := build(regions) // full barrier
	semi := build(regions - 1)

	syncStat, err := sync.StepInto(FixedPlanner{Frac: 0.8})
	if err != nil {
		t.Fatalf("sync step: %v", err)
	}
	semiStat, err := semi.StepInto(FixedPlanner{Frac: 0.8})
	if err != nil {
		t.Fatalf("semi step: %v", err)
	}
	if semiStat.Duration >= syncStat.Duration {
		t.Fatalf("semi-async commit %v not faster than full barrier %v", semiStat.Duration, syncStat.Duration)
	}
	if semiStat.OnTime != regions-1 || semiStat.Late != 1 {
		t.Fatalf("first semi step: OnTime=%d Late=%d, want %d/1", semiStat.OnTime, semiStat.Late, regions-1)
	}
	if semiStat.UpdateWeight >= syncStat.UpdateWeight {
		t.Fatalf("semi commit weight %v should be below full-participation %v", semiStat.UpdateWeight, syncStat.UpdateWeight)
	}

	// Keep stepping: the slow region must sit out dispatches while its round
	// is in flight, and its buffered update must eventually land with
	// positive staleness at a β-decayed weight.
	const perRegion = n / regions
	applied := false
	for k := 0; k < 60 && !applied; k++ {
		st, err := semi.StepInto(FixedPlanner{Frac: 0.8})
		if err != nil {
			t.Fatalf("semi step %d: %v", k, err)
		}
		if st.Late > 0 && st.Dispatched != regions-1 {
			t.Fatalf("step %d: %d regions dispatched while %d in flight, want %d: %+v",
				k, st.Dispatched, st.Late, regions-1, st)
		}
		if st.StaleApplied > 0 {
			applied = true
			if st.MeanStaleness <= 0 {
				t.Fatalf("stale update applied with non-positive staleness: %+v", st)
			}
			// Decay must bite: the commit weighs more than the fresh rounds
			// alone but strictly less than full-weight incorporation.
			lo := float64(st.OnTime * perRegion)
			hi := float64((st.OnTime + st.StaleApplied) * perRegion)
			if !(st.UpdateWeight > lo) || !(st.UpdateWeight < hi) {
				t.Fatalf("update weight %v outside (%v, %v): %+v", st.UpdateWeight, lo, hi, st)
			}
		}
		if st.Duration <= 0 || math.IsNaN(st.Duration) {
			t.Fatalf("invalid duration at step %d: %+v", k, st)
		}
	}
	if !applied {
		t.Fatal("slow region's buffered update was never incorporated")
	}
}

// TestCohortSampling checks cohort sizes, seed determinism, and that the
// sampler actually varies the draw across steps and seeds.
func TestCohortSampling(t *testing.T) {
	const (
		n       = 200
		regions = 5
	)
	build := func(seed int64) *Engine {
		fleet, err := NewFleet(n, FleetOptions{PoolSize: 8, TraceSec: 600}, 3)
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		top, err := EvenTopology(n, regions)
		if err != nil {
			t.Fatalf("EvenTopology: %v", err)
		}
		eng, err := NewEngine(fleet, top, Config{
			Tau: 1, ModelBytes: 3e5, Lambda: 1e-3,
			CohortFrac: 0.25, Seed: seed,
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		return eng
	}

	a, b := build(42), build(42)
	other := build(43)
	var aDur, otherDur []float64
	for k := 0; k < 8; k++ {
		sa, err := a.StepInto(FixedPlanner{Frac: 0.7})
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		sb, _ := b.StepInto(FixedPlanner{Frac: 0.7})
		so, _ := other.StepInto(FixedPlanner{Frac: 0.7})
		if sa != sb {
			t.Fatalf("same seed diverged at step %d:\n%+v\n%+v", k, sa, sb)
		}
		// 200 devices × 0.25 = 10 per 40-device region.
		if want := regions * 10; sa.Participants != want {
			t.Fatalf("step %d: %d participants, want %d", k, sa.Participants, want)
		}
		aDur = append(aDur, sa.Duration)
		otherDur = append(otherDur, so.Duration)
	}
	same := true
	for k := range aDur {
		if aDur[k] != otherDur[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical durations — sampler is not seeded")
	}
}

// TestEngineValidation exercises the construction and stepping guards.
func TestEngineValidation(t *testing.T) {
	fleet := testFleet(t, 10, 1)
	top, err := EvenTopology(10, 2)
	if err != nil {
		t.Fatalf("EvenTopology: %v", err)
	}
	good := Config{Tau: 1, ModelBytes: 1e5, Lambda: 1e-3, CohortFrac: 1}

	bad := []Config{
		{Tau: 0, ModelBytes: 1e5, Lambda: 1e-3, CohortFrac: 1},
		{Tau: 1, ModelBytes: 0, Lambda: 1e-3, CohortFrac: 1},
		{Tau: 1, ModelBytes: 1e5, Lambda: -1, CohortFrac: 1},
		{Tau: 1, ModelBytes: 1e5, Lambda: 1e-3, CohortFrac: 0},
		{Tau: 1, ModelBytes: 1e5, Lambda: 1e-3, CohortFrac: 1.5},
		{Tau: 1, ModelBytes: 1e5, Lambda: 1e-3, CohortFrac: 1, MinArrivals: -1},
		{Tau: 1, ModelBytes: 1e5, Lambda: 1e-3, CohortFrac: 1, EdgeLatencySec: -1},
		{Tau: 1, ModelBytes: 1e5, Lambda: 1e-3, CohortFrac: 1, StalenessBeta: 2},
		{Tau: 1, ModelBytes: 1e5, Lambda: 1e-3, CohortFrac: 1, Workers: -1},
	}
	for i, cfg := range bad {
		if _, err := NewEngine(fleet, top, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}

	eng, err := NewEngine(fleet, top, good)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := eng.StepInto(nil); err == nil {
		t.Error("nil planner accepted")
	}
	if _, err := eng.StepInto(FixedPlanner{Frac: 0}); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := eng.StepInto(FixedPlanner{Frac: 2}); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

// TestFromSystemRoundTrip checks Fleet ↔ System conversion preserves the
// population, and that System refuses phased fleets.
func TestFromSystemRoundTrip(t *testing.T) {
	fleet := testFleet(t, 25, 23)
	sys, err := fleet.System(2, 4e5, 1e-3)
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	back, err := FromSystem(sys)
	if err != nil {
		t.Fatalf("FromSystem: %v", err)
	}
	for i := 0; i < fleet.N(); i++ {
		if back.DataBits[i] != fleet.DataBits[i] || back.MaxFreqHz[i] != fleet.MaxFreqHz[i] ||
			back.CyclesPerBit[i] != fleet.CyclesPerBit[i] || back.Alpha[i] != fleet.Alpha[i] {
			t.Fatalf("device %d params changed in round trip", i)
		}
	}
	phased, err := NewFleet(10, FleetOptions{PoolSize: 4, TraceSec: 600}, 29)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if _, err := phased.System(1, 1e5, 0); err == nil {
		t.Fatal("System accepted a fleet with nonzero replay phases")
	}
}
