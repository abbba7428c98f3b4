// Package guard implements the layered online safety pipeline that wraps
// the trained actor during Algorithm 1's online phase (DESIGN.md §11).
// The offline-trained policy is only trustworthy on inputs resembling its
// training distribution; deployment sees live, stochastic bandwidth that
// can drift, spike, flatline, arrive in the wrong unit, or — after a bad
// checkpoint — meet a poisoned actor. The guard makes the serving loop
// safe under all of those:
//
//  1. Input validation + OOD drift detection: live states are checked for
//     finiteness and scored against the training normalizer's frozen
//     statistics (mean capped |z| per feature, windowed with hysteresis).
//     A drifted distribution bypasses the actor without tripping it.
//  2. Action sanitization: non-finite frequencies are rejected outright;
//     out-of-range ones are clamped into [δ_floor, δ_i^max] (a clamp
//     counts as a constraint violation against the emitting layer).
//  3. Plan-sanity pricing: before a plan is served, its planner-model
//     cost under the current bandwidth estimate is compared against the
//     max-frequency safe plan; a plan pricing worse than CostFactor× the
//     safe plan is rejected, so a poisoned actor's stall plans never
//     execute — not even as circuit-breaker probes.
//  4. Fallback chain with circuit breakers: actor → heuristic baseline →
//     max-frequency safe mode. A level trips open after TripAfter
//     consecutive violations (or realized-cost regressions, observed via
//     sched.Observer), waits out a probation window, then serves one
//     probe; failure reopens with exponentially escalated probation.
//  5. Latency watchdog: with a positive budget, a level that does not
//     answer in time is skipped (violation) and the chain falls through;
//     an answer that arrives late is discarded, never served.
//
// Every decision produces a deterministic audit record (audit.go)
// surfaced through internal/report.
package guard

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/env"
	"repro/internal/fl"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Defaults applied by New to zero-valued Config fields. DefaultOODWindow,
// DefaultOODHysteresis, DefaultBackoff, DefaultMaxProbation and
// DefaultAuditCap are fixed: no Config field overrides them.
const (
	DefaultOODThreshold  = 4.0
	DefaultOODWindow     = 5
	DefaultOODHysteresis = 0.5
	DefaultTripAfter     = 3
	DefaultProbation     = 8
	DefaultBackoff       = 2.0
	DefaultMaxProbation  = 64
	DefaultCostFactor    = 2.0
	DefaultAuditCap      = 4096
)

// Config parameterizes the guard. The zero value of every field except
// Env selects the documented default; negative OODThreshold or CostFactor
// disable the respective mechanism.
type Config struct {
	// Env is the environment layout the actor was trained in; the guard
	// rebuilds states with it. Required.
	Env env.Config
	// Ref is the training-distribution reference for the OOD layer.
	// Required when the OOD layer is enabled (OODThreshold ≥ 0); a trained
	// agent carries its own (core.Agent.Ref, built by RefFromNormalizer or
	// ProbeReference).
	Ref *Reference
	// OODThreshold is the drift score, averaged over the last
	// DefaultOODWindow decisions, above which the gate opens; the gate
	// re-closes only below DefaultOODHysteresis·OODThreshold. 0 selects
	// DefaultOODThreshold; negative disables the layer.
	OODThreshold float64
	// TripAfter is the consecutive-violation budget before a level's
	// breaker trips open (0 → DefaultTripAfter).
	TripAfter int
	// Probation is the number of decisions a tripped level sits out
	// before its first probe (0 → DefaultProbation), at most
	// DefaultMaxProbation. Each failed probe multiplies the window by
	// DefaultBackoff, capped at DefaultMaxProbation.
	Probation int
	// CostFactor bounds how much worse than the max-frequency safe plan
	// a served plan may price (layer 3) or a realized iteration may cost
	// (cost-regression breaker input). 0 selects DefaultCostFactor;
	// negative disables both cost checks.
	CostFactor float64
	// LatencyBudget is the per-decision wall-clock budget a level gets
	// to answer before the watchdog skips it. 0 disables the watchdog
	// and keeps the pipeline fully synchronous (and deterministic).
	LatencyBudget time.Duration
	// RecordPlans stores a copy of every served frequency plan on its
	// Decision, switching audit lines to the extended form that carries the
	// decision clock and the plan. The online continual-learning loop needs
	// those to replay logged decisions as transitions; plain serving leaves
	// it off and keeps the legacy byte-stable lines.
	RecordPlans bool
	// CorruptState, when set, mutates the freshly built state vector
	// before validation — the chaos harness's hook for simulating
	// corrupted telemetry upstream of the guard. Production leaves it
	// nil.
	CorruptState func(iter int, s tensor.Vector)
}

// withDefaults resolves zero-valued fields.
func (c Config) withDefaults() Config {
	if c.OODThreshold == 0 {
		c.OODThreshold = DefaultOODThreshold
	}
	if c.TripAfter == 0 {
		c.TripAfter = DefaultTripAfter
	}
	if c.Probation == 0 {
		c.Probation = DefaultProbation
	}
	if c.CostFactor == 0 {
		c.CostFactor = DefaultCostFactor
	}
	return c
}

// validate checks a defaults-resolved config.
func (c Config) validate() error {
	if err := c.Env.Validate(); err != nil {
		return fmt.Errorf("guard: %w", err)
	}
	if c.OODThreshold > 0 && c.Ref == nil {
		return fmt.Errorf("guard: OOD layer enabled (threshold %v) but no reference; set Config.Ref (RefFromNormalizer or ProbeReference) or disable with a negative threshold", c.OODThreshold)
	}
	if c.TripAfter < 1 {
		return fmt.Errorf("guard: trip budget %d must be positive", c.TripAfter)
	}
	if c.Probation < 1 {
		return fmt.Errorf("guard: probation %d must be positive", c.Probation)
	}
	if c.Probation > DefaultMaxProbation {
		return fmt.Errorf("guard: probation %d above the maximum %d", c.Probation, DefaultMaxProbation)
	}
	if c.CostFactor > 0 && c.CostFactor < 1 {
		return fmt.Errorf("guard: cost factor %v below 1 would reject the safe plan itself", c.CostFactor)
	}
	return nil
}

// breaker is one level's trip/probation state machine:
//
//	closed --TripAfter consecutive violations--> open (cooldown=probation)
//	open   --cooldown elapsed--> probing (one decision)
//	probe ok --> closed (probation resets to base)
//	probe fails --> open again, probation ×= DefaultBackoff (capped at
//	DefaultMaxProbation)
type breaker struct {
	tripAfter int
	base      int

	open      bool
	consec    int // consecutive violations while closed
	cooldown  int // decisions left before the next probe
	probation int // current (possibly escalated) probation window
}

func newBreaker(c Config) *breaker {
	return &breaker{
		tripAfter: c.TripAfter,
		base:      c.Probation,
		probation: c.Probation,
	}
}

// tick advances the probation countdown by one decision.
func (b *breaker) tick() {
	if b.open && b.cooldown > 0 {
		b.cooldown--
	}
}

// available reports whether the level may serve this decision (closed, or
// open with an elapsed cooldown — a probe).
func (b *breaker) available() bool { return !b.open || b.cooldown == 0 }

// probing reports whether the next serve attempt is a probe.
func (b *breaker) probing() bool { return b.open && b.cooldown == 0 }

// record folds one serve outcome in and returns the transition event
// ("trip", "reopen", "close") or "".
func (b *breaker) record(ok bool) string {
	if ok {
		b.consec = 0
		if b.open {
			b.open = false
			b.probation = b.base
			return "close"
		}
		return ""
	}
	if b.open { // failed probe: escalate
		next := int(float64(b.probation) * DefaultBackoff)
		if next > DefaultMaxProbation {
			next = DefaultMaxProbation
		}
		b.probation = next
		b.cooldown = next
		return "reopen"
	}
	b.consec++
	if b.consec >= b.tripAfter {
		b.consec = 0
		b.open = true
		b.cooldown = b.probation
		return "trip"
	}
	return ""
}

// stateActor is the actor entry point that accepts a prebuilt state, so
// the policy acts on exactly the vector the OOD layer inspected.
type stateActor interface {
	FrequenciesFromState(ctx sched.Context, state tensor.Vector) ([]float64, error)
}

// level is one link of the fallback chain.
type level struct {
	name    string
	s       sched.Scheduler
	br      *breaker // nil for the terminal safe mode
	primary bool
	busy    atomic.Bool // in-flight watchdog call (LatencyBudget > 0 only)
}

// Guard wraps an online actor in the layered safety pipeline. It is a
// sched.Scheduler (serving guarded frequencies) and a sched.Observer
// (closing the cost-regression loop through realized iteration stats).
// A Guard carries per-run state (breakers, OOD window, audit) and must
// not be shared across concurrent runs.
type Guard struct {
	cfg   Config
	chain []*level
	ood   *oodDetector
	aud   *Audit

	iter int

	// serving-loop scratch
	stateBuf tensor.Vector
	histBuf  []float64
	bwBuf    []float64
	maxBuf   []float64
	floors   []float64
	caps     []float64
	bwMeans  []float64

	// pending is the level whose serve outcome awaits Observe (nil when
	// the terminal level served or the outcome was already recorded).
	pending         *level
	pendingRecorded bool
	safeRef         float64 // planned safe cost backing the pending decision
}

// New builds a guard around the primary actor with the given fallback
// chain. At least one fallback is required and the last one is the
// terminal safe mode: it has no breaker and must always produce a valid
// plan (sched.MaxFreq is the canonical choice; see ChainFromSpec).
func New(primary sched.Scheduler, cfg Config, fallbacks ...sched.Scheduler) (*Guard, error) {
	if primary == nil {
		return nil, fmt.Errorf("guard: nil primary scheduler")
	}
	if len(fallbacks) == 0 {
		return nil, fmt.Errorf("guard: need at least one fallback (terminal safe mode)")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := &Guard{cfg: cfg, safeRef: math.NaN()}
	g.chain = append(g.chain, &level{name: primary.Name(), s: primary, br: newBreaker(cfg), primary: true})
	for i, s := range fallbacks {
		if s == nil {
			return nil, fmt.Errorf("guard: nil fallback %d", i)
		}
		lv := &level{name: s.Name(), s: s}
		if i < len(fallbacks)-1 {
			lv.br = newBreaker(cfg)
		}
		g.chain = append(g.chain, lv)
	}
	if cfg.OODThreshold > 0 {
		g.ood = newOODDetector(cfg.Ref, cfg.OODThreshold, DefaultOODHysteresis, DefaultOODWindow)
	}
	g.aud = newAudit(DefaultAuditCap)
	return g, nil
}

// ChainFromSpec builds a fallback chain from a comma-separated spec of
// "heuristic" (the paper's re-optimizing baseline, seeded from trace
// means) and "maxfreq". A terminal maxfreq stage is appended when the
// spec does not end in one, so the chain always bottoms out in a safe
// mode that cannot fail.
func ChainFromSpec(sys *fl.System, spec string, minFreqFrac float64) ([]sched.Scheduler, error) {
	if spec == "" {
		spec = "heuristic,maxfreq"
	}
	var out []sched.Scheduler
	for _, part := range strings.Split(spec, ",") {
		switch strings.TrimSpace(part) {
		case "heuristic":
			h, err := Heuristic(sys, minFreqFrac)
			if err != nil {
				return nil, err
			}
			out = append(out, h)
		case "maxfreq":
			out = append(out, sched.MaxFreq{})
		default:
			return nil, fmt.Errorf("guard: unknown fallback %q (want heuristic or maxfreq)", strings.TrimSpace(part))
		}
	}
	if len(out) == 0 || out[len(out)-1].Name() != "maxfreq" {
		out = append(out, sched.MaxFreq{})
	}
	return out, nil
}

// Heuristic builds the paper's re-optimizing baseline seeded from the
// system's trace means, as a fallback stage or as a primary.
func Heuristic(sys *fl.System, minFreqFrac float64) (*sched.Heuristic, error) {
	return sched.NewHeuristic(traceMeans(sys), minFreqFrac)
}

// traceMeans is each device's long-run trace mean, the bandwidth assumed
// when nothing better is known. An all-outage trace is assumed to trickle
// at 1 B/s.
func traceMeans(sys *fl.System) []float64 {
	bw := make([]float64, sys.N())
	for i, tr := range sys.Traces {
		bw[i] = tr.Summary().Mean
		if bw[i] <= 0 {
			bw[i] = 1
		}
	}
	return bw
}

// Name implements sched.Scheduler.
func (g *Guard) Name() string { return g.chain[0].name + "+guard" }

// Level returns the index and name of the first chain level whose breaker
// is closed: 0 while the primary serves undisturbed, the terminal safe mode
// when every breaker is open. It moves to a higher index only when a
// breaker trips.
func (g *Guard) Level() (int, string) {
	i := 0
	for g.chain[i].br != nil && g.chain[i].br.open {
		i++
	}
	return i, g.chain[i].name
}

// Audit exposes the decision-audit accumulator.
func (g *Guard) Audit() *Audit { return g.aud }

// Sanitize enforces the feasible action box in place: every frequency
// must be finite (error otherwise) and is clamped into
// [floor[i], cap[i]]. It returns the number of clamped entries. Exposed
// for the fuzz target; the pipeline calls it on every candidate plan.
func Sanitize(freqs, floor, cap []float64) (int, error) {
	if len(freqs) != len(floor) || len(freqs) != len(cap) {
		return 0, fmt.Errorf("guard: %d frequencies for %d devices", len(freqs), len(floor))
	}
	clamps := 0
	for i, f := range freqs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return clamps, fmt.Errorf("guard: non-finite frequency %v for device %d", f, i)
		}
		if f < floor[i] {
			freqs[i] = floor[i]
			clamps++
		} else if f > cap[i] {
			freqs[i] = cap[i]
			clamps++
		}
	}
	return clamps, nil
}

// ensureBounds (re)builds the per-device action box and bandwidth fall-
// backs for the current system.
func (g *Guard) ensureBounds(sys *fl.System) {
	n := sys.N()
	if len(g.floors) == n {
		return
	}
	g.floors = make([]float64, n)
	g.caps = make([]float64, n)
	g.maxBuf = make([]float64, n)
	g.bwMeans = traceMeans(sys)
	for i, d := range sys.Devices {
		g.floors[i] = g.cfg.Env.MinFreqFrac * d.MaxFreqHz
		g.caps[i] = d.MaxFreqHz
		g.maxBuf[i] = d.MaxFreqHz
	}
}

// assumedBW sanitizes the last observed bandwidths into a strictly
// positive finite estimate for plan pricing, falling back per device to
// the trace's long-run mean.
func (g *Guard) assumedBW(ctx sched.Context) []float64 {
	n := ctx.Sys.N()
	if cap(g.bwBuf) < n {
		g.bwBuf = make([]float64, n)
	}
	g.bwBuf = g.bwBuf[:n]
	for i := 0; i < n; i++ {
		v := 0.0
		if i < len(ctx.LastBW) {
			v = ctx.LastBW[i]
		}
		if !(v > 0) || math.IsInf(v, 0) {
			v = g.bwMeans[i]
		}
		g.bwBuf[i] = v
	}
	return g.bwBuf
}

// Frequencies implements sched.Scheduler: one guarded decision.
func (g *Guard) Frequencies(ctx sched.Context) ([]float64, error) {
	// An unobserved previous serve (no Observe arrived) counts as a
	// success so serve-time verdicts cannot be forgotten.
	g.finalizePending(true)
	g.ensureBounds(ctx.Sys)
	d := Decision{Iter: g.iter, Clock: ctx.Clock, Score: math.NaN(), Cost: math.NaN()}
	g.iter++
	for _, lv := range g.chain {
		if lv.br != nil {
			lv.br.tick()
		}
	}

	// Layer 1: rebuild the state the actor would act on, validate it,
	// score drift.
	state := g.buildState(ctx)
	stateOK := finiteVec(state)
	if !stateOK {
		g.aud.note(&d, "input:non-finite-state")
	}
	if g.ood != nil && stateOK {
		d.Score = g.ood.score(state)
		if ev := g.ood.observe(d.Score); ev != "" {
			g.aud.note(&d, "ood:"+ev)
		}
	}

	// Price the max-frequency safe plan once per decision; it anchors
	// both the plan-sanity gate and the realized-cost regression check.
	g.safeRef = math.NaN()
	var refBW []float64
	if g.cfg.CostFactor > 0 {
		refBW = g.assumedBW(ctx)
		if c, err := sched.PlanCost(ctx.Sys, refBW, g.maxBuf); err == nil {
			g.safeRef = c
		}
	}

	for li, lv := range g.chain {
		if li == len(g.chain)-1 {
			return g.serveTerminal(ctx, lv, &d)
		}
		if !lv.br.available() {
			continue
		}
		if lv.primary {
			if !stateOK {
				g.violation(&d, lv, "")
				continue
			}
			if g.ood != nil && g.ood.gate.Open() {
				// The gate, unlike the breaker, is input hysteresis: the
				// actor is bypassed, not blamed.
				g.aud.note(&d, lv.name+":ood-bypass")
				continue
			}
		}
		if lv.br.probing() {
			g.aud.note(&d, lv.name+":probe")
		}
		fs, err, timedOut, busy := g.invoke(lv, ctx, state)
		switch {
		case busy:
			g.violation(&d, lv, lv.name+":busy")
			continue
		case timedOut:
			g.violation(&d, lv, lv.name+":latency")
			continue
		case err != nil:
			g.violation(&d, lv, lv.name+":error")
			continue
		}
		clamps, serr := Sanitize(fs, g.floors, g.caps)
		if serr != nil {
			g.violation(&d, lv, lv.name+":non-finite-action")
			continue
		}
		// Layer 3: price the (now feasible) plan before letting it run.
		if g.cfg.CostFactor > 0 && !math.IsNaN(g.safeRef) {
			if pc, perr := sched.PlanCost(ctx.Sys, refBW, fs); perr != nil || pc > g.cfg.CostFactor*g.safeRef {
				g.violation(&d, lv, lv.name+":plan-cost")
				continue
			}
		}
		if clamps > 0 {
			// Serve the clamped (feasible) plan but charge the layer with
			// the constraint violation its raw output committed.
			g.aud.note(&d, fmt.Sprintf("%s:clamp=%d", lv.name, clamps))
			g.pendingRecorded = true
			if ev := lv.br.record(false); ev != "" {
				g.aud.note(&d, lv.name+":"+ev)
			}
		} else {
			g.pendingRecorded = false
		}
		g.pending = lv
		d.Layer = lv.name
		if g.cfg.RecordPlans {
			d.Plan = append([]float64(nil), fs...)
		}
		g.aud.add(d)
		return fs, nil
	}
	// Unreachable: the terminal level always returns.
	return nil, fmt.Errorf("guard: empty chain")
}

// serveTerminal serves the terminal safe mode. Its plan is still
// sanitized — the guard's contract is that it never emits an invalid
// plan, no matter which layer produced it.
func (g *Guard) serveTerminal(ctx sched.Context, lv *level, d *Decision) ([]float64, error) {
	fs, err := lv.s.Frequencies(ctx)
	if err == nil {
		var clamps int
		clamps, err = Sanitize(fs, g.floors, g.caps)
		if clamps > 0 {
			g.aud.note(d, fmt.Sprintf("%s:clamp=%d", lv.name, clamps))
		}
	}
	if err != nil {
		d.Layer = lv.name
		g.aud.note(d, lv.name+":error")
		g.aud.add(*d)
		return nil, fmt.Errorf("guard: terminal safe mode failed: %w", err)
	}
	g.pending = nil
	d.Layer = lv.name
	if g.cfg.RecordPlans {
		d.Plan = append([]float64(nil), fs...)
	}
	g.aud.add(*d)
	return fs, nil
}

// violation charges a level with a failed serve attempt: the optional
// cause event, then the breaker outcome (possibly a trip/reopen event).
func (g *Guard) violation(d *Decision, lv *level, cause string) {
	if cause != "" {
		g.aud.note(d, cause)
	}
	if ev := lv.br.record(false); ev != "" {
		g.aud.note(d, lv.name+":"+ev)
	}
}

// invoke calls one level, through the watchdog when a latency budget is
// configured. busy means a previous over-budget call is still running in
// its goroutine and the level must be skipped to avoid racing its
// internal scratch.
func (g *Guard) invoke(lv *level, ctx sched.Context, state tensor.Vector) (fs []float64, err error, timedOut, busy bool) {
	call := func(s tensor.Vector) ([]float64, error) {
		if sa, ok := lv.s.(stateActor); ok && lv.primary {
			return sa.FrequenciesFromState(ctx, s)
		}
		return lv.s.Frequencies(ctx)
	}
	if g.cfg.LatencyBudget <= 0 {
		fs, err = call(state)
		return
	}
	if !lv.busy.CompareAndSwap(false, true) {
		busy = true
		return
	}
	// The goroutine may outlive this decision, so it gets its own copy of
	// the state buffer (the shared one is overwritten next decision).
	owned := append(tensor.Vector(nil), state...)
	type result struct {
		fs  []float64
		err error
	}
	ch := make(chan result, 1)
	go func() {
		f, e := call(owned)
		ch <- result{f, e}
		lv.busy.Store(false)
	}()
	timer := time.NewTimer(g.cfg.LatencyBudget)
	defer timer.Stop()
	select {
	case r := <-ch:
		fs, err = r.fs, r.err
	case <-timer.C:
		timedOut = true
	}
	return
}

// buildState rebuilds (and masks, and optionally chaos-corrupts) the
// actor's observation for this decision.
func (g *Guard) buildState(ctx sched.Context) tensor.Vector {
	g.stateBuf, g.histBuf = env.BuildStateInto(g.stateBuf, g.histBuf, ctx.Sys, ctx.Clock, g.cfg.Env)
	env.MaskState(g.stateBuf, ctx.Down, g.cfg.Env.History)
	if g.cfg.CorruptState != nil {
		g.cfg.CorruptState(g.iter-1, g.stateBuf)
	}
	return g.stateBuf
}

// Observe implements sched.Observer: the realized iteration closes the
// loop on the last served decision, feeding the cost-regression verdict
// into the serving level's breaker.
func (g *Guard) Observe(it fl.IterationStats) {
	if d := g.aud.last(); d != nil {
		d.Cost = it.Cost
	}
	ok := true
	if g.cfg.CostFactor > 0 && !math.IsNaN(g.safeRef) && it.Cost > g.cfg.CostFactor*g.safeRef {
		ok = false
		if g.pending != nil && !g.pendingRecorded {
			if d := g.aud.last(); d != nil {
				g.aud.note(d, g.pending.name+":cost-regress")
			}
		}
	}
	g.finalizePending(ok)
}

// finalizePending records the deferred serve outcome of the last decision
// into the serving level's breaker (at most once per decision).
func (g *Guard) finalizePending(ok bool) {
	lv := g.pending
	g.pending = nil
	if lv == nil || g.pendingRecorded {
		return
	}
	g.pendingRecorded = true
	if ev := lv.br.record(ok); ev != "" {
		if d := g.aud.last(); d != nil {
			g.aud.note(d, lv.name+":"+ev)
		}
	}
}

// finiteVec reports whether every component is finite.
func finiteVec(s tensor.Vector) bool {
	for _, x := range s {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
