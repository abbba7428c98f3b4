package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/hier"
	"repro/perfbench/stat"
)

// sim-hier runs hier semi-async rounds at N=100k devices in the
// BenchmarkHierCohort100k configuration: 64 regions, 5% cohorts, a commit
// at the 48th of 64 regional arrivals, a fixed 0.6 frequency fraction and
// two region workers. The seed draws the fleet and the cohort samples.
const (
	simDevices   = 100_000
	simRegions   = 64
	simWorkers   = 2
	simBlock     = 25   // rounds per throughput sample (~12 ms)
	simCostSteps = 1000 // rounds the cost metric averages (fixed per seed)
	simCheck     = 32   // rounds compared between 1 and 2 workers
	simSetups    = 9
)

var simPlanner hier.CohortPlanner = hier.FixedPlanner{Frac: 0.6}

func simFleet(seed int64) (*hier.Fleet, hier.Topology, error) {
	f, err := hier.NewFleet(simDevices, hier.FleetOptions{PoolSize: 64, AlignPhases: true}, seed)
	if err != nil {
		return nil, hier.Topology{}, err
	}
	top, err := hier.EvenTopology(simDevices, simRegions)
	return f, top, err
}

func simEngine(f *hier.Fleet, top hier.Topology, seed int64, workers int) (*hier.Engine, error) {
	return hier.NewEngine(f, top, hier.Config{
		Tau: 1, ModelBytes: 5e5, Lambda: 1e-3,
		CohortFrac: 0.05, MinArrivals: 48,
		Workers: workers, Seed: seed + 1,
	})
}

// simReference runs the first rounds on one worker: the engine's
// bit-identity invariant says two workers must reproduce them exactly.
func simReference(f *hier.Fleet, top hier.Topology, seed int64) ([]hier.GlobalStats, error) {
	eng, err := simEngine(f, top, seed, 1)
	if err != nil {
		return nil, err
	}
	ref := make([]hier.GlobalStats, simCheck)
	for i := range ref {
		if ref[i], err = eng.StepInto(simPlanner); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// checkRound applies the per-round output checks.
func checkRound(out *outcome, i int, g hier.GlobalStats, ref []hier.GlobalStats) {
	ok := g.Participants > 0 && g.Duration > 0 && !math.IsNaN(g.Cost) && !math.IsInf(g.Cost, 0)
	if !ok {
		out.failed++
		out.check(false, "sim round %d: %+v", i, g)
	}
	if i < len(ref) {
		out.check(g == ref[i], "sim round %d at %d workers differs from 1 worker: %+v vs %+v", i, simWorkers, g, ref[i])
	}
}

func runSim(o runOpts) (*outcome, error) {
	out := &outcome{}
	var setups []float64
	var f *hier.Fleet
	var top hier.Topology
	var eng *hier.Engine
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		var err error
		if f, top, err = simFleet(o.seed); err != nil {
			return nil, err
		}
		if eng, err = simEngine(f, top, o.seed, simWorkers); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ref, err := simReference(f, top, o.seed)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceSim(o, out, f, top, ref)
	}
	var roundMS, rates []float64
	costSum := 0.0
	start := time.Now()
	for i := 0; time.Since(start) < o.seconds || i < simCostSteps; {
		b0 := time.Now()
		for j := 0; j < simBlock; j, i = j+1, i+1 {
			t0 := time.Now()
			g, err := eng.StepInto(simPlanner)
			roundMS = append(roundMS, float64(time.Since(t0))/1e6)
			if err != nil {
				return nil, fmt.Errorf("sim round %d: %w", i, err)
			}
			out.attempted++
			checkRound(out, i, g, ref)
			if i < simCostSteps {
				costSum += g.Cost
			}
		}
		rates = append(rates, simBlock/time.Since(b0).Seconds())
	}
	out.set("setup_s", stat.Median(setups), "s")
	out.set("ops_per_s", stat.Median(rates), "1/s")
	out.set("p50_ms", percentile(roundMS, 0.5), "ms")
	out.set("cost", costSum/simCostSteps, "eq9")
	fmt.Printf("sim-hier: %d rounds at N=%d\n", len(roundMS), simDevices)
	return out, nil
}

// tracedPlanner wraps the planner in a span under the current step span.
type tracedPlanner struct {
	inner  hier.CohortPlanner
	t      *tracer
	parent int
}

func (p *tracedPlanner) Name() string { return p.inner.Name() }

func (p *tracedPlanner) PlanInto(dst []float64, e *hier.Engine) error {
	s := p.t.begin("hier.plan", p.parent)
	err := p.inner.PlanInto(dst, e)
	p.t.end(s)
	return err
}

// traceSim steps an untraced and a traced engine of the same seed in
// alternating blocks; their round stats must agree exactly.
func traceSim(o runOpts, out *outcome, f *hier.Fleet, top hier.Topology, ref []hier.GlobalStats) (*outcome, error) {
	plainEng, err := simEngine(f, top, o.seed, simWorkers)
	if err != nil {
		return nil, err
	}
	tracedEng, err := simEngine(f, top, o.seed, simWorkers)
	if err != nil {
		return nil, err
	}
	t := newTracer(1 << 20)
	tp := &tracedPlanner{inner: simPlanner, t: t}
	var plainWall, tracedWall time.Duration
	var participants, late, onTime, stale int
	var weight float64
	rounds := 0
	start := time.Now()
	for i := 0; time.Since(start) < o.seconds; {
		plain := make([]hier.GlobalStats, simBlock)
		t0 := time.Now()
		for j := range plain {
			if plain[j], err = plainEng.StepInto(simPlanner); err != nil {
				return nil, err
			}
		}
		plainWall += time.Since(t0)
		t0 = time.Now()
		for j := 0; j < simBlock; j, i = j+1, i+1 {
			s := t.begin("hier.step", -1)
			tp.parent = s
			g, err := tracedEng.StepInto(tp)
			t.end(s)
			if err != nil {
				return nil, err
			}
			out.attempted++
			checkRound(out, i, g, ref)
			out.check(g == plain[j], "sim round %d: traced stats %+v differ from untraced %+v", i, g, plain[j])
			participants += g.Participants
			late += g.Late
			onTime += g.OnTime
			stale += g.StaleApplied
			weight += g.UpdateWeight
			rounds++
		}
		tracedWall += time.Since(t0)
	}
	st, spanned := t.stats()
	out.set("hier.step_ms", st["hier.step"].meanUS()/1e3, "ms")
	out.set("hier.plan_us", st["hier.plan"].meanUS(), "us")
	out.set("hier.participants", float64(participants)/float64(rounds), "count")
	out.set("hier.late_regions", float64(late)/float64(rounds), "count")
	out.set("hier.stale_share", float64(stale)/float64(onTime+stale), "share")
	out.set("hier.useful_weight", weight/float64(participants), "share")
	out.set("sim.unattributed_share", float64(tracedWall-spanned)/float64(tracedWall), "share")
	out.set("tracing.overhead_share", float64(tracedWall)/float64(plainWall)-1, "share")
	printSpans("sim-hier", st, tracedWall)
	return out, nil
}
