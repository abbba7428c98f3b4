package hier

import (
	"fmt"
	"math"

	"repro/internal/fl"
	"repro/internal/par"
)

// Config parameterizes the hierarchical engine around a fleet + topology.
type Config struct {
	// Tau is τ, local training passes per round.
	Tau int
	// ModelBytes is ξ, the uploaded model size in bytes (device → edge).
	ModelBytes float64
	// Lambda is λ, the energy weight in the per-step system cost.
	Lambda float64
	// CohortFrac is the fraction of each region's devices sampled into each
	// round's cohort, in (0, 1]. 1 selects every device (full participation,
	// and the index-order device walk the flat engine uses).
	CohortFrac float64
	// MinArrivals is M: the global step commits as soon as M regional
	// aggregates have arrived. Regions still in flight at the commit are
	// late — their updates stay buffered and are staleness-weighted into
	// the commit that sees them arrive. 0 (or ≥ regions) waits for every
	// region: the fully synchronous two-tier protocol.
	MinArrivals int
	// StalenessBeta is the per-commit decay of a late update's aggregation
	// weight: an update incorporated s commits after its round was
	// dispatched weighs cohortSize·βˢ. 0 selects the default 0.5.
	StalenessBeta float64
	// EdgeLatencySec is the fixed aggregator→cloud upload latency added to
	// every regional round (the edge tier's own uplink; 0 = colocated).
	EdgeLatencySec float64
	// Workers bounds the per-region event loops run in parallel; ≤ 1 runs
	// regions serially. Results, and a failing step's error, are the same
	// at any worker count: each region writes only its own result slot, the
	// merge walks regions in index order and the pool returns the lowest
	// failing region's error (DESIGN.md §8).
	Workers int
	// Seed drives cohort subsampling (a counter-based per-(step, region)
	// stream, so sampling is independent of worker scheduling).
	Seed int64
}

// DefaultStalenessBeta is the late-update weight decay used when
// Config.StalenessBeta is zero.
const DefaultStalenessBeta = 0.5

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Tau <= 0:
		return fmt.Errorf("hier: τ = %d must be positive", c.Tau)
	case c.ModelBytes <= 0 || math.IsNaN(c.ModelBytes) || math.IsInf(c.ModelBytes, 0):
		return fmt.Errorf("hier: model size %v must be positive and finite", c.ModelBytes)
	case c.Lambda < 0 || math.IsNaN(c.Lambda) || math.IsInf(c.Lambda, 0):
		return fmt.Errorf("hier: λ = %v must be non-negative and finite", c.Lambda)
	case !(c.CohortFrac > 0) || c.CohortFrac > 1:
		return fmt.Errorf("hier: cohort fraction %v outside (0,1]", c.CohortFrac)
	case c.MinArrivals < 0:
		return fmt.Errorf("hier: M = %d negative", c.MinArrivals)
	case c.StalenessBeta < 0 || c.StalenessBeta > 1 || math.IsNaN(c.StalenessBeta):
		return fmt.Errorf("hier: staleness β = %v outside [0,1]", c.StalenessBeta)
	case c.EdgeLatencySec < 0 || math.IsNaN(c.EdgeLatencySec) || math.IsInf(c.EdgeLatencySec, 0):
		return fmt.Errorf("hier: edge latency %v must be non-negative and finite", c.EdgeLatencySec)
	case c.Workers < 0:
		return fmt.Errorf("hier: %d workers", c.Workers)
	}
	return nil
}

// GlobalStats records one committed global step.
type GlobalStats struct {
	// Index is the global step k (0-based).
	Index int
	// StartTime is the wall-clock time the step's rounds were dispatched.
	StartTime float64
	// Duration is the time from dispatch to commit: the M-th earliest
	// regional arrival. With one region and M=all it equals the flat
	// barrier T^k bit-for-bit.
	Duration float64
	// ComputeEnergy and TxEnergy sum every round dispatched this step
	// (energy is charged at dispatch — that is when the devices work).
	ComputeEnergy, TxEnergy float64
	// Cost is Duration + λ·(ComputeEnergy+TxEnergy), the per-step system
	// cost the DRL reward negates.
	Cost float64
	// Dispatched counts regions that started a round this step; a region
	// still training its previous round sits the dispatch out (it cannot
	// train two models at once).
	Dispatched int
	// Participants is the number of devices that started training this
	// step (Σ cohort sizes over dispatched regions).
	Participants int
	// OnTime counts this step's rounds incorporated at this commit; Late
	// counts regions whose round is still in flight after the commit.
	OnTime, Late int
	// StaleApplied counts updates from earlier steps' rounds incorporated
	// at this commit, and MeanStaleness is the mean age in commits over
	// everything incorporated (0 when only fresh updates applied).
	StaleApplied  int
	MeanStaleness float64
	// UpdateWeight is the commit's total aggregation weight:
	// Σ cohortSize·β^age over incorporated updates. Under the flat barrier
	// this is always N; semi-async trades some of it for speed.
	UpdateWeight float64
}

// TotalEnergy returns the step's summed energy.
func (g *GlobalStats) TotalEnergy() float64 { return g.ComputeEnergy + g.TxEnergy }

// flightEvent is one regional aggregate in flight to the cloud, ordered by
// arrival time with region index as tie-break (a total order, so the commit
// sequence is independent of heap layout).
type flightEvent struct {
	at     float64 // absolute arrival time
	off    float64 // arrival offset from the dispatching step's clock (exact)
	origin int     // global step whose dispatch produced it
	weight float64 // cohort size
	region int32
}

func flightLess(a, b flightEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.region < b.region
}

// Engine drives hierarchical semi-synchronous federation over a fleet. All
// stepping state lives in preallocated scratch: after the first step the
// serial round path performs zero heap allocations (pinned by the
// AllocsPerRun gates). Not safe for concurrent use.
type Engine struct {
	Fleet *Fleet
	Top   Topology
	Cfg   Config

	clock float64
	step  int

	// work caches τ·c_i·D_i per device (the eq. 1 numerator).
	work []float64
	// perm is the per-region cohort-sampling space: region r shuffles
	// perm[lo:hi] in place (disjoint slices, so parallel regions never race).
	perm []int32

	// Per-region round results; workers write only their own index.
	finishOff []float64 // arrival offset of this step's aggregate
	regCE     []float64
	regTE     []float64
	cohortN   []int32

	// inFlight marks regions whose previous round has not been
	// incorporated yet; they skip the dispatch. Every region is either
	// free or has exactly one event in the heap.
	inFlight []bool
	dispatch []int32 // regions dispatched this step, ascending

	fracs []float64 // planner output (one frequency fraction per region)

	events *fl.Heap[flightEvent]

	// regionJob runs the round of dispatch[i]. It is built once, so a
	// serial step hands the pool no new closure.
	regionJob func(i int) error
}

// NewEngine validates and assembles an engine starting at wall-clock 0.
func NewEngine(fleet *Fleet, top Topology, cfg Config) (*Engine, error) {
	if fleet == nil {
		return nil, fmt.Errorf("hier: nil fleet")
	}
	if err := fleet.Validate(); err != nil {
		return nil, err
	}
	if err := top.validate(fleet.N()); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StalenessBeta == 0 {
		cfg.StalenessBeta = DefaultStalenessBeta
	}
	n := fleet.N()
	r := top.Regions()
	e := &Engine{
		Fleet:     fleet,
		Top:       top,
		Cfg:       cfg,
		work:      make([]float64, n),
		perm:      make([]int32, n),
		finishOff: make([]float64, r),
		regCE:     make([]float64, r),
		regTE:     make([]float64, r),
		cohortN:   make([]int32, r),
		inFlight:  make([]bool, r),
		dispatch:  make([]int32, 0, r),
		fracs:     make([]float64, r),
		events:    fl.NewHeap(flightLess, r),
	}
	for i := 0; i < n; i++ {
		// The same expression (and evaluation order) as device.Workload, so
		// the 1-region engine reproduces the flat engine bit-for-bit.
		e.work[i] = float64(cfg.Tau) * fleet.CyclesPerBit[i] * fleet.DataBits[i]
		e.perm[i] = int32(i)
	}
	e.regionJob = func(i int) error { return e.regionRound(int(e.dispatch[i])) }
	return e, nil
}

// Clock returns the current global wall-clock time.
func (e *Engine) Clock() float64 { return e.clock }

// effectiveM resolves Config.MinArrivals against the region count.
func (e *Engine) effectiveM() int {
	m := e.Cfg.MinArrivals
	if m <= 0 || m > e.Top.Regions() {
		m = e.Top.Regions()
	}
	return m
}

// StepInto runs one global step: the planner prices every region's cohort
// (one frequency fraction per region), each free region dispatches its
// local device-barrier round at the current clock, the global step commits
// at the M-th regional arrival — counting earlier steps' rounds still in
// flight — and every update that has arrived by the commit is incorporated,
// staleness-weighted by β^age. Regions still in flight skip dispatches
// until their round lands. The returned stats are self-contained values
// (nothing aliases engine scratch).
func (e *Engine) StepInto(p CohortPlanner) (GlobalStats, error) {
	if p == nil {
		return GlobalStats{}, fmt.Errorf("hier: nil planner")
	}
	R := e.Top.Regions()
	if err := p.PlanInto(e.fracs, e); err != nil {
		return GlobalStats{}, fmt.Errorf("hier: planner %s: %w", p.Name(), err)
	}
	for r, frac := range e.fracs {
		if !(frac > 0) || frac > 1 {
			return GlobalStats{}, fmt.Errorf("hier: planner %s set region %d fraction %v outside (0,1]", p.Name(), r, frac)
		}
	}

	e.dispatch = e.dispatch[:0]
	for r := 0; r < R; r++ {
		if !e.inFlight[r] {
			e.dispatch = append(e.dispatch, int32(r))
		}
	}
	// Each region writes only its own result slots, so the results are
	// bit-identical at any worker count.
	if err := par.Run(len(e.dispatch), e.Cfg.Workers, e.regionJob); err != nil {
		return GlobalStats{}, err
	}

	// Merge in deterministic region order (dispatch is ascending, and the
	// event heap pops are a total order over (time, region)) — independent
	// of which worker computed what.
	participants := 0
	var cE, tE float64
	for _, r := range e.dispatch {
		e.events.Push(flightEvent{
			at:     e.clock + e.finishOff[r],
			off:    e.finishOff[r],
			origin: e.step,
			weight: float64(e.cohortN[r]),
			region: r,
		})
		e.inFlight[r] = true
		participants += int(e.cohortN[r])
		cE += e.regCE[r]
		tE += e.regTE[r]
	}

	// Every region is either free (just dispatched) or has one event in
	// flight, so the heap holds exactly R events here.
	m := e.effectiveM()
	var commitOff, commitAt, weight float64
	onTime, staleApplied, stalenessSum := 0, 0, 0
	incorporate := func(ev flightEvent) {
		e.inFlight[ev.region] = false
		age := e.step - ev.origin
		if age == 0 {
			onTime++
			weight += ev.weight
		} else {
			staleApplied++
			stalenessSum += age
			weight += ev.weight * math.Pow(e.Cfg.StalenessBeta, float64(age))
		}
	}
	for i := 0; i < m; i++ {
		ev := e.events.Pop()
		commitAt = ev.at
		if ev.origin == e.step {
			// The exact dispatch-relative offset: with one region and M=all
			// this is the flat barrier T^k bit-for-bit (no (clock+T)−clock
			// round trip).
			commitOff = ev.off
		} else {
			commitOff = ev.at - e.clock
		}
		incorporate(ev)
	}
	// Anything else that has arrived by the commit lands now too.
	for e.events.Len() > 0 && e.events.Peek().at <= commitAt {
		incorporate(e.events.Pop())
	}
	late := e.events.Len()

	meanStale := 0.0
	if applied := onTime + staleApplied; applied > 0 && stalenessSum > 0 {
		meanStale = float64(stalenessSum) / float64(applied)
	}

	stats := GlobalStats{
		Index:         e.step,
		StartTime:     e.clock,
		Duration:      commitOff,
		ComputeEnergy: cE,
		TxEnergy:      tE,
		Cost:          commitOff + e.Cfg.Lambda*(cE+tE),
		Dispatched:    len(e.dispatch),
		Participants:  participants,
		OnTime:        onTime,
		Late:          late,
		StaleApplied:  staleApplied,
		MeanStaleness: meanStale,
		UpdateWeight:  weight,
	}
	e.clock += commitOff
	e.step++
	return stats, nil
}

// regionRound simulates region r's local round dispatched at the current
// clock: cohort selection, per-device compute+upload timing against the
// shared trace pool, the regional device barrier, and the aggregator's
// uplink to the cloud. The per-device arithmetic mirrors
// fl.RunIterationOptsInto expression by expression so the 1-region engine
// stays bit-identical to the flat barrier.
func (e *Engine) regionRound(r int) error {
	lo, hi := e.Top.Region(r)
	size := hi - lo
	frac := e.fracs[r]
	start := e.clock
	fleet := e.Fleet
	bytes := e.Cfg.ModelBytes

	full := e.Cfg.CohortFrac >= 1
	c := size
	if !full {
		c = int(e.Cfg.CohortFrac*float64(size) + 0.5)
		if c < 1 {
			c = 1
		}
		if c > size {
			c = size
		}
		// Partial Fisher–Yates over the region's slice of the permutation
		// space: the first c entries become a uniform sample without
		// replacement. The stream is counter-based in (seed, step, region),
		// so the draw is independent of worker scheduling.
		st := sampleSeed(e.Cfg.Seed, e.step, r)
		p := e.perm[lo:hi]
		for i := 0; i < c; i++ {
			j := i + int(nextRand(&st)%uint64(size-i))
			p[i], p[j] = p[j], p[i]
		}
	}

	var dur, cE, tE float64
	for k := 0; k < c; k++ {
		i := lo + k
		if !full {
			i = int(e.perm[lo+k])
		}
		f := frac * fleet.MaxFreqHz[i]
		tcmp := e.work[i] / f
		upStart := start + tcmp
		tr := fleet.Pool[fleet.TraceIdx[i]]
		ph := fleet.Phase[i]
		upEnd, err := tr.UploadFinish(upStart+ph, bytes)
		if err != nil {
			return fmt.Errorf("hier: region %d device %d upload: %w", r, i, err)
		}
		tcom := (upEnd - ph) - upStart
		total := tcmp + tcom
		if total > dur {
			dur = total
		}
		cE += fleet.Alpha[i] * e.work[i] * f * f
		tE += fleet.TxPerSec[i] * tcom
	}

	e.finishOff[r] = dur + e.Cfg.EdgeLatencySec
	e.cohortN[r] = int32(c)
	e.regCE[r] = cE
	e.regTE[r] = tE
	return nil
}

// sampleSeed derives the counter-based RNG state for one (seed, step,
// region) cohort draw.
func sampleSeed(seed int64, step, region int) uint64 {
	return mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(step)*0xbf58476d1ce4e5b9 ^ uint64(region)*0x94d049bb133111eb)
}

// nextRand advances a splitmix64 stream.
func nextRand(st *uint64) uint64 {
	*st += 0x9e3779b97f4a7c15
	return mix64(*st)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
