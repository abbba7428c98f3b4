// Package env adapts the federated-learning simulator into the episodic
// MDP of the paper's §IV-B: states are per-device bandwidth-slot histories
// (s_k = (B_1^k, …, B_N^k) with B_i^k the H+1 most recent slot averages),
// actions are per-device CPU frequencies, and the reward is the negated
// system cost of the completed iteration (eq. 13).
package env

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/tensor"
)

// Config parameterizes the MDP around a fl.System.
type Config struct {
	// SlotSec is h, the bandwidth-slot width in seconds ("tens of
	// seconds" per [20][21]).
	SlotSec float64
	// History is H: the state holds H+1 slot averages per device.
	History int
	// BWScale normalizes bandwidth into O(1) network inputs (bytes/s).
	BWScale float64
	// MinFreqFrac is the action floor as a fraction of δ_i^max, keeping
	// the frequency strictly positive as the paper's (0, δmax] requires.
	MinFreqFrac float64
	// EpisodeLen is the number of FL iterations per training episode.
	EpisodeLen int
	// RewardScale divides the raw −cost reward into a range PPO likes.
	RewardScale float64
	// MaxStartTime bounds the random episode start time t¹; 0 uses each
	// trace's duration.
	MaxStartTime float64
	// Faults, when non-nil, injects the seeded device-fault processes of
	// internal/fault into every episode (a fresh schedule per episode,
	// seeded from the environment RNG) so the agent trains under churn.
	// nil keeps the paper's fault-free MDP bit-for-bit.
	Faults *fault.Config
	// RoundDeadline enables partial aggregation: devices missing the
	// deadline (seconds per iteration) are dropped from the round. It is
	// required when Faults allows crashes and optional otherwise; 0
	// disables it.
	RoundDeadline float64
	// RetryBackoffSec tunes the upload retry backoff
	// (fl.DefaultRetryBackoffSec when 0).
	RetryBackoffSec float64
	// DeadlineTarget is the per-iteration duration target (seconds) of the
	// constrained-training deadline cost signal: StepResult.Costs[CostDeadline]
	// is the normalized overshoot max(0, T^k − target)/target. 0 disables the
	// signal (the cost stays 0).
	DeadlineTarget float64
	// EnergyBudget is the per-iteration energy target (joules) of the
	// constrained-training energy cost signal, normalized the same way into
	// StepResult.Costs[CostEnergy]. 0 disables the signal.
	EnergyBudget float64
}

// Constraint-cost signal indices of StepResult.Costs. The vector has a fixed
// compile-time size so the zero-allocation step path stays allocation-free.
const (
	// CostDeadline indexes the normalized round-duration overshoot.
	CostDeadline = 0
	// CostEnergy indexes the normalized energy-budget overshoot.
	CostEnergy = 1
	// NumCostSignals is the number of per-step constraint cost signals.
	NumCostSignals = 2
)

// DefaultConfig returns settings matched to the paper's testbed scenario.
func DefaultConfig() Config {
	return Config{
		SlotSec:     10,
		History:     5,
		BWScale:     5e6,
		MinFreqFrac: 0.05,
		EpisodeLen:  40,
		RewardScale: 10,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.SlotSec <= 0:
		return fmt.Errorf("env: slot width %v must be positive", c.SlotSec)
	case c.History < 0:
		return fmt.Errorf("env: history H = %d negative", c.History)
	case c.BWScale <= 0:
		return fmt.Errorf("env: bandwidth scale %v must be positive", c.BWScale)
	case c.MinFreqFrac <= 0 || c.MinFreqFrac >= 1:
		return fmt.Errorf("env: min frequency fraction %v outside (0,1)", c.MinFreqFrac)
	case c.EpisodeLen <= 0:
		return fmt.Errorf("env: episode length %d must be positive", c.EpisodeLen)
	case c.RewardScale <= 0:
		return fmt.Errorf("env: reward scale %v must be positive", c.RewardScale)
	case c.MaxStartTime < 0:
		return fmt.Errorf("env: max start time %v negative", c.MaxStartTime)
	case c.RoundDeadline < 0:
		return fmt.Errorf("env: round deadline %v negative", c.RoundDeadline)
	case c.RetryBackoffSec < 0:
		return fmt.Errorf("env: retry backoff %v negative", c.RetryBackoffSec)
	case c.DeadlineTarget < 0:
		return fmt.Errorf("env: deadline target %v negative", c.DeadlineTarget)
	case c.EnergyBudget < 0:
		return fmt.Errorf("env: energy budget %v negative", c.EnergyBudget)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("env: %w", err)
		}
		if c.Faults.CrashProb > 0 && c.RoundDeadline == 0 {
			return fmt.Errorf("env: device crashes require a round deadline (partial aggregation)")
		}
	}
	return nil
}

// Opts materializes the fault-tolerance iteration options for one episode
// of an n-device system: a fresh fault schedule from faultSeed when Faults
// is configured, plus the deadline and backoff knobs. With no faults and no
// deadline it returns the zero options (the fault-free engine).
func (c Config) Opts(n int, faultSeed int64) (fl.IterOptions, error) {
	opts := fl.IterOptions{Deadline: c.RoundDeadline, RetryBackoffSec: c.RetryBackoffSec}
	if c.Faults != nil && c.Faults.Enabled() {
		sched, err := fault.NewSchedule(*c.Faults, n, faultSeed)
		if err != nil {
			return fl.IterOptions{}, fmt.Errorf("env: %w", err)
		}
		opts.Faults = sched
	}
	return opts, nil
}

// Env is the episodic RL view of a federated-learning system.
type Env struct {
	Cfg Config
	Sys *fl.System

	ses  *fl.Session
	step int
	rng  *rand.Rand

	// Scratch buffers behind the zero-allocation StepInto path; the
	// results they back are valid until the next StepInto or Reset.
	stateBuf tensor.Vector
	histBuf  []float64
	freqBuf  []float64
}

// New builds an environment; Reset must be called before StepInto.
func New(sys *fl.System, cfg Config, rng *rand.Rand) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("env: nil rng")
	}
	return &Env{Cfg: cfg, Sys: sys, rng: rng}, nil
}

// StateDim returns N·(H+1).
func (e *Env) StateDim() int { return e.Sys.N() * (e.Cfg.History + 1) }

// ActionDim returns N (one frequency per device).
func (e *Env) ActionDim() int { return e.Sys.N() }

// Reset starts a new episode at a uniformly random wall-clock time
// (Algorithm 1 line 6) and returns the initial state s₁ built from the
// bandwidth history preceding it (lines 7–10).
func (e *Env) Reset() (tensor.Vector, error) {
	maxStart := e.Cfg.MaxStartTime
	if maxStart == 0 {
		for _, tr := range e.Sys.Traces {
			if d := tr.Duration(); maxStart == 0 || d < maxStart {
				maxStart = d
			}
		}
	}
	start := e.rng.Float64() * maxStart
	// The fault seed is drawn only when faults are configured, so the
	// fault-free RNG stream — and with it every existing training
	// trajectory — is untouched.
	var faultSeed int64
	if e.Cfg.Faults != nil && e.Cfg.Faults.Enabled() {
		faultSeed = e.rng.Int63()
	}
	return e.resetSession(start, faultSeed)
}

// ResetAtFaults starts an episode at a fixed wall-clock time with a fixed
// fault-schedule seed — fully deterministic faulty evaluation.
func (e *Env) ResetAtFaults(start float64, faultSeed int64) (tensor.Vector, error) {
	return e.resetSession(start, faultSeed)
}

func (e *Env) resetSession(start float64, faultSeed int64) (tensor.Vector, error) {
	ses, err := fl.NewSession(e.Sys, start)
	if err != nil {
		return nil, err
	}
	opts, err := e.Cfg.Opts(e.Sys.N(), faultSeed)
	if err != nil {
		return nil, err
	}
	ses.Opts = opts
	e.ses = ses
	e.step = 0
	return e.State(), nil
}

// State builds s_k from the traces at the current wall clock: each device
// contributes its H+1 most recent slot averages, normalized by BWScale.
// Devices that are crashed for the upcoming iteration are masked to zero —
// the server cannot observe a dead device's bandwidth, and the zero block
// tells the policy the device is gone.
func (e *Env) State() tensor.Vector {
	if e.ses == nil {
		panic("env: State before Reset")
	}
	s, _ := BuildStateInto(nil, nil, e.Sys, e.ses.Clock, e.Cfg)
	if sched := e.ses.Opts.Faults; sched != nil {
		MaskState(s, sched.Down(e.ses.K()), e.Cfg.History)
	}
	return s
}

// Down reports which devices are crashed for the upcoming iteration (nil
// when no faults are configured or before Reset).
func (e *Env) Down() []bool {
	if e.ses == nil || e.ses.Opts.Faults == nil {
		return nil
	}
	return e.ses.Opts.Faults.Down(e.ses.K())
}

// MaskState zeroes the H+1 bandwidth slots of every down device in a state
// vector built by BuildStateInto, in place. The online DRL scheduler applies
// the same masking so reasoning states match training states under churn.
func MaskState(s tensor.Vector, down []bool, history int) {
	if down == nil {
		return
	}
	w := history + 1
	for i, d := range down {
		if !d {
			continue
		}
		for j := i * w; j < (i+1)*w; j++ {
			s[j] = 0
		}
	}
}

// BuildStateInto constructs the paper's state s_k for an arbitrary system
// and wall-clock time: the concatenated, normalized H+1 bandwidth-slot
// histories of every device. Exposed so the online DRL scheduler can
// rebuild states exactly as they looked during training. dst receives the
// state (resliced to N·(H+1) entries, allocated when nil or when its
// capacity is short). The slot averages come from the system's
// slot-major table (fl.System.SlotTable): H+1 sequential row reads. A system
// without one falls back to each trace's HistoryInto, reusing scratch for
// the per-device histories. Both buffers are returned for reuse on the next
// call; with adequate buffers the call performs no allocation (DESIGN.md
// §10).
func BuildStateInto(dst tensor.Vector, scratch []float64, sys *fl.System, clock float64, cfg Config) (tensor.Vector, []float64) {
	if cfg.History < 0 {
		panic("env: negative history length")
	}
	w := cfg.History + 1
	n := sys.N() * w
	if cap(dst) < n {
		dst = tensor.NewVector(n)
	} else {
		dst = dst[:n]
	}
	tbl := sys.SlotTable(cfg.SlotSec)
	if tbl == nil {
		idx := 0
		for _, tr := range sys.Traces {
			scratch = tr.HistoryInto(scratch, clock, cfg.SlotSec, cfg.History)
			for _, b := range scratch {
				dst[idx] = b / cfg.BWScale
				idx++
			}
		}
		return dst, scratch
	}
	// The slot of clock, exactly as trace.HistoryInto computes it.
	j := int(math.Floor(clock / cfg.SlotSec))
	for k := 0; k < w; k++ {
		for i, b := range tbl.Row(j - k) {
			dst[i*w+k] = b / cfg.BWScale
		}
	}
	return dst, scratch
}

// MapActionInto maps a raw Gaussian action vector (one value per device,
// nominally in (−1, 1) but unbounded when sampled) to feasible frequencies:
// each component is clipped to [−1, 1] and scaled affinely onto
// [minFreqFrac·δmax, δmax]. The frequencies go into dst, allocated when nil
// or when its capacity is short.
func MapActionInto(dst []float64, sys *fl.System, a tensor.Vector, minFreqFrac float64) ([]float64, error) {
	if len(a) != sys.N() {
		return nil, fmt.Errorf("env: action dim %d, want %d", len(a), sys.N())
	}
	if minFreqFrac <= 0 || minFreqFrac >= 1 {
		return nil, fmt.Errorf("env: min frequency fraction %v outside (0,1)", minFreqFrac)
	}
	freqs := dst
	if cap(freqs) < len(a) {
		freqs = make([]float64, len(a))
	} else {
		freqs = freqs[:len(a)]
	}
	for i, d := range sys.Devices {
		x := a[i]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// A non-finite action component would silently map to a
			// non-finite frequency (NaN passes both clamp comparisons) and
			// poison the engine downstream; reject it here, where the device
			// index still identifies the offender.
			return nil, fmt.Errorf("env: non-finite action component %v for device %d", x, i)
		}
		if x < -1 {
			x = -1
		} else if x > 1 {
			x = 1
		}
		frac := minFreqFrac + (x+1)/2*(1-minFreqFrac)
		freqs[i] = frac * d.MaxFreqHz
	}
	return freqs, nil
}

// StepResult reports one environment transition.
type StepResult struct {
	// State is s_{k+1}.
	State tensor.Vector
	// Reward is r_k = −cost/RewardScale.
	Reward float64
	// Done marks the end of the episode.
	Done bool
	// Costs holds the per-constraint cost signals of the transition
	// (CostDeadline, CostEnergy), all zero unless the corresponding targets
	// are configured. A fixed-size array keeps the zero-alloc step path flat.
	Costs [NumCostSignals]float64
	// Iter holds the full simulator breakdown for metrics.
	Iter fl.IterationStats
}

// ConstraintCosts derives the per-constraint cost signals of one iteration:
// the normalized overshoot of the round duration past DeadlineTarget and of
// the total energy past EnergyBudget. Disabled targets (0) contribute 0, so
// unconstrained configurations see an all-zero vector.
func (c Config) ConstraintCosts(it fl.IterationStats) [NumCostSignals]float64 {
	var costs [NumCostSignals]float64
	if c.DeadlineTarget > 0 && it.Duration > c.DeadlineTarget {
		costs[CostDeadline] = (it.Duration - c.DeadlineTarget) / c.DeadlineTarget
	}
	if c.EnergyBudget > 0 {
		if e := it.TotalEnergy(); e > c.EnergyBudget {
			costs[CostEnergy] = (e - c.EnergyBudget) / c.EnergyBudget
		}
	}
	return costs
}

// StepInto applies the action, simulates one synchronous FL iteration,
// advances the wall clock, and returns the transition. It is the
// zero-allocation hot path: the returned State and Iter.Devices alias
// per-environment scratch that the next StepInto (or Reset) overwrites, and
// the iteration is not recorded in the session history. Callers that retain
// the transition — like the trainer's replay buffer — must clone what they
// keep before the next call. In steady state (fault-free, after the first
// call warms the buffers) it allocates nothing.
func (e *Env) StepInto(action tensor.Vector) (StepResult, error) {
	if e.ses == nil {
		return StepResult{}, fmt.Errorf("env: StepInto before Reset")
	}
	if e.step >= e.Cfg.EpisodeLen {
		return StepResult{}, fmt.Errorf("env: episode finished; call Reset")
	}
	freqs, err := MapActionInto(e.freqBuf, e.Sys, action, e.Cfg.MinFreqFrac)
	if err != nil {
		return StepResult{}, err
	}
	e.freqBuf = freqs
	it, err := e.ses.StepInto(freqs)
	if err != nil {
		return StepResult{}, err
	}
	e.step++
	return StepResult{
		State:  e.stateInto(),
		Reward: fl.Reward(it) / e.Cfg.RewardScale,
		Done:   e.step >= e.Cfg.EpisodeLen,
		Costs:  e.Cfg.ConstraintCosts(it),
		Iter:   it,
	}, nil
}

// stateInto builds the current state into the environment's scratch buffer,
// applying the same fault masking as State.
func (e *Env) stateInto() tensor.Vector {
	s, scratch := BuildStateInto(e.stateBuf, e.histBuf, e.Sys, e.ses.Clock, e.Cfg)
	e.stateBuf, e.histBuf = s, scratch
	if sched := e.ses.Opts.Faults; sched != nil {
		MaskState(s, sched.Down(e.ses.K()), e.Cfg.History)
	}
	return s
}

// Clock returns the current wall-clock time t^k.
func (e *Env) Clock() float64 {
	if e.ses == nil {
		return 0
	}
	return e.ses.Clock
}

// Session exposes the underlying FL session (nil before Reset), which
// baselines use to read last-iteration bandwidths.
func (e *Env) Session() *fl.Session { return e.ses }
