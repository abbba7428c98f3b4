package guard

import (
	"fmt"
	"math"

	"repro/internal/env"
	"repro/internal/fl"
	"repro/internal/rl"
	"repro/internal/tensor"
)

// Reference is the frozen per-dimension training distribution the OOD
// layer scores live states against: the mean and standard deviation of
// each state feature as the training normalizer saw them. A trained agent
// carries its own (core.Agent.Ref), saved in its agent file.
type Reference struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// Dim returns the reference dimensionality.
func (r *Reference) Dim() int { return len(r.Mean) }

// Validate checks that the reference can score dim-long states: dim finite
// means and dim finite, positive standard deviations. A zero deviation
// would make a matching feature's z-score NaN, which the gate skips.
func (r *Reference) Validate(dim int) error {
	if r == nil || len(r.Mean) != dim || len(r.Std) != dim {
		return fmt.Errorf("guard: reference does not hold %d means and deviations", dim)
	}
	for i, m := range r.Mean {
		if s := r.Std[i]; math.IsNaN(m) || math.IsInf(m, 0) || !(s > 0) || math.IsInf(s, 1) {
			return fmt.Errorf("guard: reference feature %d has mean %v and deviation %v", i, m, s)
		}
	}
	return nil
}

// RefFromNormalizer freezes a trained observation normalizer's running
// statistics into an OOD reference via the stable Snapshot accessor — the
// natural source when the agent trained with observation normalization.
func RefFromNormalizer(n *rl.ObsNormalizer) (*Reference, error) {
	if n == nil || n.Dim() == 0 {
		return nil, fmt.Errorf("guard: nil or empty normalizer")
	}
	st := n.Snapshot()
	r := &Reference{Mean: st.Mean, Std: make([]float64, st.Dim())}
	for i := range r.Std {
		r.Std[i] = st.StdDev(i)
	}
	return r, nil
}

// ProbeReference builds an OOD reference for an agent that trained
// without observation normalization: it replays the training system's
// traces through env.BuildState at `samples` evenly spaced times across
// one replay cycle and folds the states into a fresh Welford accumulator.
// Deterministic: same system and sample count, same reference.
func ProbeReference(sys *fl.System, cfg env.Config, samples int) (*Reference, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if samples < 2 {
		return nil, fmt.Errorf("guard: probe needs at least 2 samples, got %d", samples)
	}
	dur := math.Inf(1)
	for _, tr := range sys.Traces {
		if d := tr.Duration(); d < dur {
			dur = d
		}
	}
	n := rl.NewObsNormalizer(sys.N()*(cfg.History+1), 0)
	var state tensor.Vector
	var scratch []float64
	for j := 0; j < samples; j++ {
		t := dur * float64(j) / float64(samples)
		state, scratch = env.BuildStateInto(state, scratch, sys, t, cfg)
		n.Update(state)
	}
	return RefFromNormalizer(n)
}

// zCap bounds a single feature's |z| contribution to the drift score, so
// one insane feature (a unit-scale error is 10^3 σ off) saturates rather
// than dwarfing the windowed average and masking when it recovers.
const zCap = 20.0

// oodDetector scores live states against a Reference and feeds the scores
// through a Hysteresis gate, so a drift score oscillating around the
// threshold cannot flap the actor in and out of service.
type oodDetector struct {
	ref  *Reference
	gate *Hysteresis
}

func newOODDetector(ref *Reference, threshold, hysteresis float64, window int) *oodDetector {
	return &oodDetector{ref: ref, gate: NewHysteresis(threshold, hysteresis, window)}
}

// score computes the mean capped |z| of the state against the reference.
// A state whose dimensionality does not match the reference is maximal
// drift by definition (the deployment does not match training).
func (o *oodDetector) score(s tensor.Vector) float64 {
	if len(s) != o.ref.Dim() {
		return math.Inf(1)
	}
	var sum float64
	for i, x := range s {
		z := math.Abs(x-o.ref.Mean[i]) / o.ref.Std[i]
		if z > zCap {
			z = zCap
		}
		sum += z
	}
	return sum / float64(len(s))
}

// observe folds one per-decision score into the gate (Hysteresis.Observe).
func (o *oodDetector) observe(score float64) string { return o.gate.Observe(score) }

// Hysteresis is a windowed open/close gate over a stream of scores: it opens
// when the mean of the last window scores exceeds the threshold and
// re-closes only once that mean falls below hysteresis·threshold. A NaN
// score (an unscorable observation) does not advance the window. The OOD
// layer runs one over live drift scores; online.Loop runs one over the
// scores parsed back from the audit log, so the training side reaches the
// drift verdict the serving side reached from the audit bytes alone.
type Hysteresis struct {
	threshold  float64
	hysteresis float64

	win  []float64 // ring buffer of recent scores
	pos  int
	n    int
	open bool
}

// NewHysteresis builds a closed gate. threshold > 0, hysteresis in (0,1]
// and window ≥ 1 are the caller's to check; the OOD layer and online.Loop
// pass the package constants for the last two.
func NewHysteresis(threshold, hysteresis float64, window int) *Hysteresis {
	return &Hysteresis{threshold: threshold, hysteresis: hysteresis, win: make([]float64, window)}
}

// Observe folds one score into the window and advances the gate. It returns
// "open" or "close" on a transition, "" otherwise.
func (h *Hysteresis) Observe(score float64) string {
	if math.IsNaN(score) {
		return ""
	}
	h.win[h.pos] = score
	h.pos = (h.pos + 1) % len(h.win)
	if h.n < len(h.win) {
		h.n++
	}
	var sum float64
	for i := 0; i < h.n; i++ {
		sum += h.win[i]
	}
	avg := sum / float64(h.n)
	switch {
	case !h.open && avg > h.threshold:
		h.open = true
		return "open"
	case h.open && avg < h.hysteresis*h.threshold:
		h.open = false
		return "close"
	}
	return ""
}

// Open reports whether the gate is open.
func (h *Hysteresis) Open() bool { return h.open }
