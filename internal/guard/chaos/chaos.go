// Package chaos adversarially stresses the guarded serving loop: it
// mutates a system's bandwidth traces (or the actor itself) the way real
// deployments go wrong — regime spikes, dead links, corrupted telemetry,
// unit-scale errors, truncated logs, poisoned checkpoints — and runs the
// guarded controller, an unguarded copy of the same actor, and the
// max-frequency safe mode side by side over the mutated system. The
// guard's contract is that every emitted frequency stays in
// [δ_floor, δ_i^max] and that no served plan prices above CostFactor ×
// the max-frequency safe plan at the predicted bandwidth
// (guard.Config.CostFactor); the harness counts breaches of the first
// (Result.FreqViolations). It also reports the guarded total cost against
// the safe mode's on the realized traces. GuardedCost ≤ SafeCost is an
// empirical bound, not a guarantee: the guard prices plans at the
// predicted bandwidth, which the realized bandwidth can betray.
// TestChaosSuite checks the bound on its fixture.
//
// The safe-mode bound is evaluated as a paired counterfactual: at every
// decision the harness also steps a throwaway session at max frequencies
// from the controller's own clock, so both policies face the identical
// realized bandwidth. An independent safe episode from the same start is
// reported too (SafeEpisodeCost), but it is not the bound — two runs of
// different speeds cover different wall-clock spans of a time-varying
// trace, so their totals are not comparable decision-for-decision.
package chaos

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/fl"
	"repro/internal/guard"
	"repro/internal/par"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Class is one adversarial mutation family. Mutate derives the serving
// system from the pristine one (deterministically from the seed);
// Corrupt, when set, additionally mutates the actor's observed state
// in-flight (telemetry corruption the trace model itself cannot express,
// since trace.New rejects non-finite samples); Poison swaps the trained
// actor for a stall-plan checkpoint.
type Class struct {
	Name        string
	Description string
	Mutate      func(sys *fl.System, seed int64) (*fl.System, error)
	Corrupt     func(iter int, s tensor.Vector)
	Poison      bool
}

// NaN-corruption window of the nan-state class: decisions in
// [NaNFrom, NaNUntil) observe a state whose first device block is NaN.
const (
	NaNFrom  = 5
	NaNUntil = 15
)

// Classes returns the built-in mutation classes, in canonical order.
func Classes() []Class {
	return []Class{
		{
			Name:        "spike",
			Description: "×50 bandwidth bursts on ~8% of samples (regime flips the trainer never saw)",
			Mutate: func(sys *fl.System, seed int64) (*fl.System, error) {
				return mutateTraces(sys, func(tr *trace.Trace, rng *rand.Rand) error {
					for i := range tr.Samples {
						if rng.Float64() < 0.08 {
							tr.Samples[i] *= 50
						}
					}
					return nil
				}, seed)
			},
		},
		{
			Name:        "flatline",
			Description: "middle half of every trace pinned to its minimum (near-dead links)",
			Mutate: func(sys *fl.System, seed int64) (*fl.System, error) {
				return mutateTraces(sys, func(tr *trace.Trace, rng *rand.Rand) error {
					lo := tr.Summary().Min
					if lo <= 0 {
						lo = 1
					}
					n := len(tr.Samples)
					for i := n / 4; i < 3*n/4; i++ {
						tr.Samples[i] = lo
					}
					return nil
				}, seed)
			},
		},
		{
			Name:        "nan-state",
			Description: "telemetry corruption: the actor's observed state turns NaN for a window of decisions",
			Mutate:      identityMutate,
			Corrupt: func(iter int, s tensor.Vector) {
				if iter >= NaNFrom && iter < NaNUntil {
					for i := range s {
						s[i] = math.NaN()
					}
				}
			},
		},
		{
			Name:        "scale",
			Description: "unit-scale error: every bandwidth sample ×1000 (bytes fed where kilobytes were meant)",
			Mutate: func(sys *fl.System, seed int64) (*fl.System, error) {
				return mutateTraces(sys, func(tr *trace.Trace, rng *rand.Rand) error {
					for i := range tr.Samples {
						tr.Samples[i] *= 1000
					}
					return nil
				}, seed)
			},
		},
		{
			Name:        "truncate",
			Description: "traces cut to a short prefix, replayed cyclically (stale, unrepresentative logs)",
			Mutate: func(sys *fl.System, seed int64) (*fl.System, error) {
				return mutateTraces(sys, func(tr *trace.Trace, rng *rand.Rand) error {
					keep := len(tr.Samples) / 20
					if keep < 8 {
						keep = 8
					}
					if keep < len(tr.Samples) {
						tr.Samples = tr.Samples[:keep]
					}
					return nil
				}, seed)
			},
		},
		{
			Name:        "poison",
			Description: "poisoned checkpoint: actor output layer saturated to the frequency floor (stall plans)",
			Mutate:      identityMutate,
			Poison:      true,
		},
	}
}

func identityMutate(sys *fl.System, seed int64) (*fl.System, error) {
	return cloneSystem(sys), nil
}

// cloneSystem deep-copies traces (devices are immutable here and shared).
func cloneSystem(sys *fl.System) *fl.System {
	out := withTraces(sys)
	for i, tr := range sys.Traces {
		out.Traces[i] = tr.Clone()
	}
	return out
}

// withTraces returns a new System with sys's devices and task constants and
// an empty trace slice of the same length. It is built field by field: a
// System must not be copied (it holds its slot-table cache).
func withTraces(sys *fl.System) *fl.System {
	return &fl.System{
		Devices:    sys.Devices,
		Traces:     make([]*trace.Trace, len(sys.Traces)),
		Tau:        sys.Tau,
		ModelBytes: sys.ModelBytes,
		Lambda:     sys.Lambda,
	}
}

// mutateTraces clones the system and applies f to every trace, seeding
// one RNG per trace so the mutation is deterministic and independent of
// evaluation order. Mutated traces are revalidated through trace.New —
// a mutator cannot smuggle an invalid trace into the engine.
func mutateTraces(sys *fl.System, f func(tr *trace.Trace, rng *rand.Rand) error, seed int64) (*fl.System, error) {
	out := withTraces(sys)
	for i, tr := range sys.Traces {
		c := tr.Clone()
		rng := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
		if err := f(c, rng); err != nil {
			return nil, err
		}
		v, err := trace.New(c.Name, c.Interval, c.Samples)
		if err != nil {
			return nil, fmt.Errorf("chaos: mutated trace invalid: %w", err)
		}
		out.Traces[i] = v
	}
	return out, nil
}

// PoisonAgent returns a copy of the agent whose actor has been corrupted
// the way a bad checkpoint would corrupt it: the output layer's weights
// are zeroed and its biases saturated hard negative, so every action pins
// to −1 and every frequency to the floor — a maximal-stall plan that
// looks perfectly finite and in-range.
func PoisonAgent(a *core.Agent) (*core.Agent, error) {
	q, ok := a.Policy.(*rl.GaussianPolicy)
	if !ok {
		return nil, fmt.Errorf("chaos: cannot poison policy type %T", a.Policy)
	}
	p := q.Clone()
	last := p.Net.Layers[len(p.Net.Layers)-1]
	for i := range last.W.Data {
		last.W.Data[i] = 0
	}
	for i := range last.B {
		last.B[i] = -10
	}
	return a.WithPolicy(p), nil
}

// Options parameterizes one chaos episode.
type Options struct {
	// Iters is the number of FL iterations per episode.
	Iters int
	// Start is the wall-clock start time of the episode.
	Start float64
	// Seed drives the trace mutators.
	Seed int64
	// Guard configures the pipeline. Run fills Env and Ref from the
	// agent (core.Agent.GuardedScheduler).
	Guard guard.Config
	// Fallback is the ChainFromSpec fallback spec ("" → heuristic,maxfreq).
	Fallback string
}

// Result is one chaos episode's verdict.
type Result struct {
	Class       string
	Description string
	// GuardedCost is the guarded controller's total episode cost on the
	// mutated system. SafeCost is its paired max-frequency counterfactual:
	// the cost of stepping at max frequencies from the same decision
	// clocks, i.e. what safe mode would have paid for the guard's exact
	// decision points. GuardedCost ≤ SafeCost is an empirical bound, not
	// the guard's contract: the guard bounds each served plan's price at
	// the predicted bandwidth (CostFactor × the safe plan's), not its
	// realized cost. TestChaosSuite checks the bound on its fixture.
	GuardedCost float64
	SafeCost    float64
	// SafeEpisodeCost is an independent max-frequency episode from the
	// same start time (context only — its trajectory diverges).
	SafeEpisodeCost float64
	// UnguardedCost / UnguardedSafeCost are the bare actor's total and its
	// paired counterfactual (both NaN when the unguarded run failed).
	UnguardedCost     float64
	UnguardedSafeCost float64
	// UnguardedErr records how the unguarded actor failed ("" if it ran).
	UnguardedErr string
	// FreqViolations counts guarded frequencies outside [floor, max]
	// (the guard's contract is that this is always 0).
	FreqViolations int
	// MinFracServed is the minimum served f/δmax across all devices and
	// iterations.
	MinFracServed float64
	// Trips / Closes total breaker trip and re-close events.
	Trips  int
	Closes int
	// ActorServed counts decisions served by the primary actor.
	ActorServed int
	// Decisions is the total decision count.
	Decisions int
	// Audit is the guard's full decision audit for the episode.
	Audit *guard.Audit
}

// counterfactualSafe steps a throwaway session at max frequencies from
// the given clock: the cost safe mode would have realized for the same
// decision point, under the same bandwidth the live session is about to
// see.
func counterfactualSafe(sys *fl.System, clock float64, maxFreqs []float64) (float64, error) {
	ses, err := fl.NewSession(sys, clock)
	if err != nil {
		return 0, err
	}
	it, err := ses.Step(maxFreqs)
	if err != nil {
		return 0, err
	}
	return it.Cost, nil
}

// unguarded runs the bare actor on the same (possibly corrupted) state
// the guard would have seen — the negative control. It also accumulates
// its own paired safe counterfactual.
type unguarded struct {
	drl        *sched.DRL
	corrupt    func(int, tensor.Vector)
	iter       int
	maxFreqs   []float64
	pairedSafe float64
}

func (u *unguarded) Name() string { return "drl-unguarded" }

func (u *unguarded) Frequencies(ctx sched.Context) ([]float64, error) {
	safe, err := counterfactualSafe(ctx.Sys, ctx.Clock, u.maxFreqs)
	if err != nil {
		return nil, err
	}
	u.pairedSafe += safe
	state, _ := env.BuildStateInto(nil, nil, ctx.Sys, ctx.Clock, u.drl.Cfg)
	env.MaskState(state, ctx.Down, u.drl.Cfg.History)
	if u.corrupt != nil {
		u.corrupt(u.iter, state)
	}
	u.iter++
	return u.drl.FrequenciesFromState(ctx, state)
}

// recorder wraps the guard to witness every served plan against the
// action box, independently of the guard's own bookkeeping, and to
// accumulate the paired safe counterfactual.
type recorder struct {
	g          *guard.Guard
	floors     []float64
	caps       []float64
	violations int
	minFrac    float64
	maxFreqs   []float64
	pairedSafe float64
}

func (r *recorder) Name() string { return r.g.Name() }

func (r *recorder) Frequencies(ctx sched.Context) ([]float64, error) {
	safe, err := counterfactualSafe(ctx.Sys, ctx.Clock, r.maxFreqs)
	if err != nil {
		return nil, err
	}
	r.pairedSafe += safe
	fs, err := r.g.Frequencies(ctx)
	if err != nil {
		return nil, err
	}
	for i, f := range fs {
		if math.IsNaN(f) || f < r.floors[i]*(1-1e-12) || f > r.caps[i]*(1+1e-12) {
			r.violations++
		}
		if frac := f / r.caps[i]; frac < r.minFrac {
			r.minFrac = frac
		}
	}
	return fs, nil
}

func (r *recorder) Observe(it fl.IterationStats) { r.g.Observe(it) }

// Run executes one chaos episode: mutate the system per the class, then
// race the guarded controller, the unguarded actor, and the max-frequency
// safe mode over the mutated system. The agent's reference (its training
// distribution) is the OOD baseline — never the mutated system.
func Run(pristine *fl.System, agent *core.Agent, cl Class, opts Options) (*Result, error) {
	if opts.Iters <= 0 {
		return nil, fmt.Errorf("chaos: iteration count %d must be positive", opts.Iters)
	}
	mutated, err := cl.Mutate(pristine, opts.Seed)
	if err != nil {
		return nil, err
	}
	actorAgent := agent
	if cl.Poison {
		if actorAgent, err = PoisonAgent(agent); err != nil {
			return nil, err
		}
	}

	// Guarded controller.
	gcfg := opts.Guard
	gcfg.CorruptState = cl.Corrupt
	g, err := actorAgent.GuardedScheduler(mutated, gcfg, opts.Fallback)
	if err != nil {
		return nil, err
	}
	maxFreqs := make([]float64, mutated.N())
	rec := &recorder{g: g, minFrac: math.Inf(1), maxFreqs: maxFreqs}
	rec.floors = make([]float64, mutated.N())
	rec.caps = make([]float64, mutated.N())
	for i, d := range mutated.Devices {
		rec.floors[i] = agent.EnvCfg.MinFreqFrac * d.MaxFreqHz
		rec.caps[i] = d.MaxFreqHz
		maxFreqs[i] = d.MaxFreqHz
	}
	guarded, err := sched.Run(mutated, rec, opts.Start, opts.Iters)
	if err != nil {
		return nil, fmt.Errorf("chaos: guarded run failed on class %s: %w", cl.Name, err)
	}

	// Max-frequency safe baseline.
	safe, err := sched.Run(mutated, sched.MaxFreq{}, opts.Start, opts.Iters)
	if err != nil {
		return nil, fmt.Errorf("chaos: safe baseline failed on class %s: %w", cl.Name, err)
	}

	// Unguarded actor: the negative control. Its failure is data, not an
	// error.
	drl, err := actorAgent.Scheduler()
	if err != nil {
		return nil, err
	}
	ug := &unguarded{drl: drl, corrupt: cl.Corrupt, maxFreqs: maxFreqs}
	res := &Result{
		Class:             cl.Name,
		Description:       cl.Description,
		UnguardedCost:     math.NaN(),
		UnguardedSafeCost: math.NaN(),
	}
	if unguardedIts, uerr := sched.Run(mutated, ug, opts.Start, opts.Iters); uerr != nil {
		res.UnguardedErr = uerr.Error()
	} else {
		res.UnguardedCost = total(unguardedIts)
		res.UnguardedSafeCost = ug.pairedSafe
	}

	res.GuardedCost = total(guarded)
	res.SafeCost = rec.pairedSafe
	res.SafeEpisodeCost = total(safe)
	res.FreqViolations = rec.violations
	res.MinFracServed = rec.minFrac
	res.Audit = g.Audit()
	res.Decisions = res.Audit.Total()
	for ev, n := range res.Audit.EventCounts() {
		if hasSuffix(ev, ":trip") {
			res.Trips += n
		}
		if hasSuffix(ev, ":close") {
			res.Closes += n
		}
	}
	res.ActorServed = res.Audit.ServedCounts()[drl.Name()]
	return res, nil
}

// RunAll evaluates every class on the job pool at the given width. Results
// are in class order and bit-identical at any worker count: each episode
// derives everything from (pristine, agent, class, opts) alone.
func RunAll(pristine *fl.System, agent *core.Agent, classes []Class, opts Options, workers int) ([]*Result, error) {
	results := make([]*Result, len(classes))
	err := par.Run(len(classes), workers, func(i int) error {
		var err error
		if results[i], err = Run(pristine, agent, classes[i], opts); err != nil {
			return fmt.Errorf("chaos: class %s: %w", classes[i].Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

func total(its []fl.IterationStats) float64 {
	var c float64
	for _, it := range its {
		c += it.Cost
	}
	return c
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}
