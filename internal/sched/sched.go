// Package sched implements the CPU-frequency schedulers compared in the
// paper's evaluation (§V): the proposed DRL agent, the Heuristic baseline of
// Wang et al. [3] (re-optimize every iteration from the previous iteration's
// observed bandwidth), the Static baseline of Tran et al. [4] (optimize once
// from an initial bandwidth estimate, then never adapt), plus MaxFreq,
// Random and Oracle references.
//
// All model-based schedulers share one deterministic subproblem: given an
// assumed (constant) bandwidth per device, pick frequencies minimizing
// T + λΣE. For a fixed deadline T, energy is minimized by running each
// device just fast enough — δ_i(T) = clamp(w_i/(T − t_com,i)) — so the
// problem collapses to a 1-D convex minimization over T, solved numerically.
package sched

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/env"
	"repro/internal/fl"
	"repro/internal/optimizer"
	"repro/internal/rl"
	"repro/internal/tensor"
)

// Context is everything a scheduler may observe when choosing frequencies
// for the upcoming iteration. Crucially, no scheduler (except Oracle) sees
// the future bandwidth.
type Context struct {
	// Sys is the federated-learning system.
	Sys *fl.System
	// Clock is the wall-clock time t^k at which the iteration starts.
	Clock float64
	// Iter is k (0-based).
	Iter int
	// LastBW holds each device's realized mean bandwidth in iteration k−1,
	// or nil for the first iteration.
	LastBW []float64
	// Down marks devices crashed for the upcoming iteration (fault
	// injection); nil when the run is fault-free. Schedulers may use it to
	// mask missing observations — the engine ignores frequencies assigned
	// to down devices.
	Down []bool
}

// Scheduler chooses per-device CPU frequencies at the start of an iteration.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Frequencies returns one frequency per device, each in (0, δ_i^max].
	Frequencies(ctx Context) ([]float64, error)
}

// PlanCost evaluates the planner's objective — barrier finish time plus
// λ-weighted energy under assumed constant bandwidths — for a *fixed*
// frequency plan. It is the same cost model PlanFrequencies minimizes,
// exposed so the guard's plan-sanity layer can price a proposed plan
// against the max-frequency safe plan before serving it.
func PlanCost(sys *fl.System, assumedBW, freqs []float64) (float64, error) {
	n := sys.N()
	if len(assumedBW) != n {
		return 0, fmt.Errorf("sched: %d bandwidths for %d devices", len(assumedBW), n)
	}
	if len(freqs) != n {
		return 0, fmt.Errorf("sched: %d frequencies for %d devices", len(freqs), n)
	}
	var finish, energy float64
	for i, d := range sys.Devices {
		bw := assumedBW[i]
		if !(bw > 0) || math.IsInf(bw, 0) {
			return 0, fmt.Errorf("sched: invalid assumed bandwidth %v for device %d", bw, i)
		}
		f := freqs[i]
		if !(f > 0) || f > d.MaxFreqHz*(1+1e-9) {
			return 0, fmt.Errorf("sched: device %d frequency %v outside (0, %v]", i, f, d.MaxFreqHz)
		}
		tcom := sys.ModelBytes / bw
		if ti := d.Workload(sys.Tau)/f + tcom; ti > finish {
			finish = ti
		}
		energy += d.ComputeEnergy(sys.Tau, f) + d.TxEnergy(tcom)
	}
	return finish + sys.Lambda*energy, nil
}

// PlanFrequencies solves the known-bandwidth allocation: assuming device i
// uploads at a constant assumedBW[i] bytes/s, it returns frequencies
// minimizing F(T) + λ·ΣE over deadlines T, where each device runs just fast
// enough to finish by T (clamped to [minFrac·δmax, δmax]).
func PlanFrequencies(sys *fl.System, assumedBW []float64, minFrac float64) ([]float64, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	n := sys.N()
	if len(assumedBW) != n {
		return nil, fmt.Errorf("sched: %d bandwidths for %d devices", len(assumedBW), n)
	}
	if minFrac <= 0 || minFrac >= 1 {
		return nil, fmt.Errorf("sched: min frequency fraction %v outside (0,1)", minFrac)
	}
	work := make([]float64, n) // w_i = τ·c_i·D_i
	tcom := make([]float64, n) // ξ/B_i
	loHz := make([]float64, n) // frequency floor
	for i, d := range sys.Devices {
		if assumedBW[i] <= 0 || math.IsNaN(assumedBW[i]) || math.IsInf(assumedBW[i], 0) {
			return nil, fmt.Errorf("sched: invalid assumed bandwidth %v for device %d", assumedBW[i], i)
		}
		work[i] = d.Workload(sys.Tau)
		tcom[i] = sys.ModelBytes / assumedBW[i]
		loHz[i] = minFrac * d.MaxFreqHz
	}

	// One frequency buffer shared by every freqsAt evaluation: cost() is
	// called a few hundred times by the 1-D optimizer below, and each call
	// only needs the frequencies transiently. The final freqsAt result is
	// returned to the caller, which then owns the buffer.
	fs := make([]float64, n)
	freqsAt := func(T float64) []float64 {
		for i, d := range sys.Devices {
			slack := T - tcom[i]
			var f float64
			if slack <= 0 {
				f = d.MaxFreqHz
			} else {
				f = work[i] / slack
			}
			if f > d.MaxFreqHz {
				f = d.MaxFreqHz
			}
			if f < loHz[i] {
				f = loHz[i]
			}
			fs[i] = f
		}
		return fs
	}
	cost := func(T float64) float64 {
		fs := freqsAt(T)
		finish := 0.0
		var energy float64
		for i, d := range sys.Devices {
			ti := work[i]/fs[i] + tcom[i]
			if ti > finish {
				finish = ti
			}
			energy += d.ComputeEnergy(sys.Tau, fs[i]) + d.TxEnergy(tcom[i])
		}
		return finish + sys.Lambda*energy
	}

	var tMin, tMax float64
	for i, d := range sys.Devices {
		if t := tcom[i] + work[i]/d.MaxFreqHz; t > tMin {
			tMin = t
		}
		if t := tcom[i] + work[i]/loHz[i]; t > tMax {
			tMax = t
		}
	}
	if tMax <= tMin {
		return freqsAt(tMin), nil
	}
	T, _ := optimizer.Refined(cost, tMin, tMax, 200, 1e-6*(tMax-tMin)+1e-12)
	return freqsAt(T), nil
}

// MaxFreq always runs every device at δ_i^max — the energy-oblivious
// federated-learning default the paper's introduction argues against.
type MaxFreq struct{}

// Name implements Scheduler.
func (MaxFreq) Name() string { return "maxfreq" }

// Frequencies implements Scheduler.
func (MaxFreq) Frequencies(ctx Context) ([]float64, error) {
	fs := make([]float64, ctx.Sys.N())
	for i, d := range ctx.Sys.Devices {
		fs[i] = d.MaxFreqHz
	}
	return fs, nil
}

// Random draws each frequency uniformly from [minFrac·δmax, δmax] — a
// sanity-check lower bound on scheduler quality.
type Random struct {
	MinFrac float64
	Rng     *rand.Rand
}

// NewRandom constructs a Random scheduler.
func NewRandom(minFrac float64, rng *rand.Rand) (*Random, error) {
	if minFrac <= 0 || minFrac >= 1 {
		return nil, fmt.Errorf("sched: min frequency fraction %v outside (0,1)", minFrac)
	}
	if rng == nil {
		return nil, fmt.Errorf("sched: nil rng")
	}
	return &Random{MinFrac: minFrac, Rng: rng}, nil
}

// Name implements Scheduler.
func (*Random) Name() string { return "random" }

// Frequencies implements Scheduler.
func (r *Random) Frequencies(ctx Context) ([]float64, error) {
	fs := make([]float64, ctx.Sys.N())
	for i, d := range ctx.Sys.Devices {
		frac := r.MinFrac + r.Rng.Float64()*(1-r.MinFrac)
		fs[i] = frac * d.MaxFreqHz
	}
	return fs, nil
}

// Static is the baseline of Tran et al. [4]: it assumes the network is
// static, solves the allocation once from an initial bandwidth estimate
// (the paper implements it as the average of randomly sampled bandwidth
// data), and applies the same frequencies at every iteration.
type Static struct {
	fixed []float64
}

// NewStatic solves the allocation for the assumed bandwidths up front.
func NewStatic(sys *fl.System, assumedBW []float64, minFrac float64) (*Static, error) {
	fs, err := PlanFrequencies(sys, assumedBW, minFrac)
	if err != nil {
		return nil, err
	}
	return &Static{fixed: fs}, nil
}

// NewStaticSampled builds the Static baseline the way the paper describes
// its implementation: "we randomly select some bandwidth data from the
// dataset, and determine the CPU-cycle frequency for each mobile device
// according to the average value of these bandwidth data". Each device's
// assumed bandwidth is the mean of `samples` random draws from its own
// trace, so a small sample misestimates a volatile link — the source of
// Static's poor showing in Fig. 7/8.
func NewStaticSampled(sys *fl.System, samples int, minFrac float64, rng *rand.Rand) (*Static, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if samples <= 0 {
		return nil, fmt.Errorf("sched: sample count %d must be positive", samples)
	}
	if rng == nil {
		return nil, fmt.Errorf("sched: nil rng")
	}
	bw := make([]float64, sys.N())
	for i, tr := range sys.Traces {
		var sum float64
		for s := 0; s < samples; s++ {
			sum += tr.Samples[rng.Intn(len(tr.Samples))]
		}
		bw[i] = sum / float64(samples)
		if bw[i] <= 0 {
			bw[i] = 1 // an all-outage sample: assume a trickle
		}
	}
	return NewStatic(sys, bw, minFrac)
}

// NewStaticDecoupled builds the Static baseline in the barrier-unaware form
// of Tran et al. [4]: each device independently minimizes its *own* cost
// t_i + λ·E_i — the tradeoff between computation time and energy — with no
// knowledge of the synchronization barrier (exploiting that barrier slack is
// precisely this paper's contribution, so the 2019 baseline cannot have it).
// Under eq. (1)+(6) the per-device optimum is closed-form:
//
//	d/dδ [w/δ + λ·α·w·δ²] = 0  ⇒  δ* = (2λα)^{-1/3}
//
// clamped to [minFrac·δmax, δmax]; the bandwidth estimate only shifts the
// additive upload term, so the resulting frequencies are fixed for the whole
// run — the paper's "consistent CPU-cycle frequency".
func NewStaticDecoupled(sys *fl.System, minFrac float64) (*Static, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if minFrac <= 0 || minFrac >= 1 {
		return nil, fmt.Errorf("sched: min frequency fraction %v outside (0,1)", minFrac)
	}
	fs := make([]float64, sys.N())
	for i, d := range sys.Devices {
		var f float64
		if sys.Lambda > 0 {
			f = math.Pow(2*sys.Lambda*d.Alpha, -1.0/3.0)
		} else {
			f = d.MaxFreqHz // time-only objective: run flat out
		}
		f = d.ClampFreq(f, minFrac)
		fs[i] = f
	}
	return &Static{fixed: fs}, nil
}

// Name implements Scheduler.
func (*Static) Name() string { return "static" }

// Frequencies implements Scheduler.
func (s *Static) Frequencies(ctx Context) ([]float64, error) {
	if len(s.fixed) != ctx.Sys.N() {
		return nil, fmt.Errorf("sched: static plan for %d devices applied to %d", len(s.fixed), ctx.Sys.N())
	}
	return append([]float64(nil), s.fixed...), nil
}

// Heuristic is the baseline of Wang et al. [3]: at the start of each
// iteration the parameter server knows the bandwidths realized in the
// previous iteration and re-optimizes assuming they will persist.
type Heuristic struct {
	initialBW []float64
	minFrac   float64
}

// NewHeuristic builds the baseline; initialBW seeds the first iteration
// before any observation exists.
func NewHeuristic(initialBW []float64, minFrac float64) (*Heuristic, error) {
	if len(initialBW) == 0 {
		return nil, fmt.Errorf("sched: empty initial bandwidth estimate")
	}
	if minFrac <= 0 || minFrac >= 1 {
		return nil, fmt.Errorf("sched: min frequency fraction %v outside (0,1)", minFrac)
	}
	return &Heuristic{initialBW: append([]float64(nil), initialBW...), minFrac: minFrac}, nil
}

// Name implements Scheduler.
func (*Heuristic) Name() string { return "heuristic" }

// Frequencies implements Scheduler.
func (h *Heuristic) Frequencies(ctx Context) ([]float64, error) {
	bw := ctx.LastBW
	if bw == nil {
		bw = h.initialBW
	} else if len(bw) == len(h.initialBW) {
		// Graceful degradation under faults: a device whose observation is
		// missing or corrupt (crashed before reporting, blacked-out upload)
		// falls back to the initial estimate instead of poisoning the plan.
		sanitized := false
		for i, b := range bw {
			if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
				if !sanitized {
					bw = append([]float64(nil), bw...)
					sanitized = true
				}
				bw[i] = h.initialBW[i]
			}
		}
	}
	return PlanFrequencies(ctx.Sys, bw, h.minFrac)
}

// Oracle cheats: it reads each device's true mean bandwidth over the next
// LookaheadSec and plans against those means through PlanFrequencies'
// constant-bandwidth model. Eq. (3) integrates the bandwidth over the
// actual upload window instead, so the plan is not optimal in hindsight and
// the Oracle bounds nothing: the DRL agent beats it at N=50 (Fig. 8).
type Oracle struct {
	MinFrac      float64
	LookaheadSec float64

	// bw is the reused lookahead-bandwidth scratch; schedulers are
	// per-run values, never shared across goroutines.
	bw []float64
}

// NewOracle constructs an Oracle with the given lookahead window.
func NewOracle(minFrac, lookaheadSec float64) (*Oracle, error) {
	if minFrac <= 0 || minFrac >= 1 {
		return nil, fmt.Errorf("sched: min frequency fraction %v outside (0,1)", minFrac)
	}
	if lookaheadSec <= 0 {
		return nil, fmt.Errorf("sched: lookahead %v must be positive", lookaheadSec)
	}
	return &Oracle{MinFrac: minFrac, LookaheadSec: lookaheadSec}, nil
}

// Name implements Scheduler.
func (*Oracle) Name() string { return "oracle" }

// Frequencies implements Scheduler.
func (o *Oracle) Frequencies(ctx Context) ([]float64, error) {
	if cap(o.bw) < ctx.Sys.N() {
		o.bw = make([]float64, ctx.Sys.N())
	} else {
		o.bw = o.bw[:ctx.Sys.N()]
	}
	for i, tr := range ctx.Sys.Traces {
		o.bw[i] = tr.Average(ctx.Clock, ctx.Clock+o.LookaheadSec)
		if o.bw[i] <= 0 {
			o.bw[i] = 1 // degenerate outage window: assume a trickle
		}
	}
	return PlanFrequencies(ctx.Sys, o.bw, o.MinFrac)
}

// DRL wraps a trained actor network for online reasoning (§V-B2): it feeds
// the current bandwidth-history state into the policy and applies the mean
// action deterministically.
type DRL struct {
	// Policy is the trained actor.
	Policy rl.Policy
	// Norm, when set, standardizes states exactly as during training.
	Norm *rl.ObsNormalizer
	Cfg  env.Config

	// Reusable serving buffers (normalized state, action mean).
	normBuf tensor.Vector
	actBuf  tensor.Vector
}

// NewDRL validates that the policy matches the environment layout it will
// be asked to act in.
func NewDRL(policy rl.Policy, cfg env.Config) (*DRL, error) {
	if policy == nil {
		return nil, fmt.Errorf("sched: nil policy")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DRL{Policy: policy, Cfg: cfg}, nil
}

// SwapPolicy hot-swaps the serving policy for one with identical
// dimensions — the online continual-learning promotion path. Callers must
// hold whatever lock serializes this DRL's decisions (it is single-run,
// like the guard).
func (d *DRL) SwapPolicy(p rl.Policy) error {
	if p == nil {
		return fmt.Errorf("sched: swap to nil policy")
	}
	if p.StateDim() != d.Policy.StateDim() || p.ActionDim() != d.Policy.ActionDim() {
		return fmt.Errorf("sched: swap policy dims (%d,%d) do not match serving dims (%d,%d)",
			p.StateDim(), p.ActionDim(), d.Policy.StateDim(), d.Policy.ActionDim())
	}
	d.Policy = p
	return nil
}

// Name implements Scheduler.
func (*DRL) Name() string { return "drl" }

// Frequencies implements Scheduler.
func (d *DRL) Frequencies(ctx Context) ([]float64, error) {
	state, _ := env.BuildStateInto(nil, nil, ctx.Sys, ctx.Clock, d.Cfg)
	// Mask crashed devices exactly as the training environment does, so
	// reasoning states under churn match what the policy was trained on.
	env.MaskState(state, ctx.Down, d.Cfg.History)
	return d.FrequenciesFromState(ctx, state)
}

// FrequenciesFromState applies the policy to a caller-built raw state
// vector (already masked, not yet normalized). The guard pipeline enters
// here so the actor acts on exactly the state its OOD layer inspected —
// including any injected corruption a chaos run simulates.
func (d *DRL) FrequenciesFromState(ctx Context, state tensor.Vector) ([]float64, error) {
	return d.FrequenciesFromStateInto(nil, ctx, state)
}

// FrequenciesFromStateInto is FrequenciesFromState with a caller-provided
// destination (grown if needed, allocated when nil). Together with the
// DRL's internal state/action buffers this makes the steady-state serving
// tick allocation-free for the joint and the shared actor alike (core's
// TestDRLTickZeroAllocs).
func (d *DRL) FrequenciesFromStateInto(dst []float64, ctx Context, state tensor.Vector) ([]float64, error) {
	if len(state) != d.Policy.StateDim() {
		return nil, fmt.Errorf("sched: state dim %d but policy expects %d (trained on a different N or H?)",
			len(state), d.Policy.StateDim())
	}
	if d.Norm != nil {
		if d.Norm.Dim() != len(state) {
			return nil, fmt.Errorf("sched: normalizer dim %d but state dim %d", d.Norm.Dim(), len(state))
		}
		d.normBuf = ensureLen(d.normBuf, len(state))
		d.Norm.NormalizeInto(d.normBuf, state)
		state = d.normBuf
	}
	d.actBuf = ensureLen(d.actBuf, d.Policy.ActionDim())
	d.Policy.MeanInto(d.actBuf, state)
	return env.MapActionInto(dst, ctx.Sys, d.actBuf, d.Cfg.MinFreqFrac)
}

// ensureLen returns v resized to n, reusing its backing array when large
// enough.
func ensureLen(v tensor.Vector, n int) tensor.Vector {
	if cap(v) < n {
		return tensor.NewVector(n)
	}
	return v[:n]
}
