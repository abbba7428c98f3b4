package rl

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file provides the serializable state snapshots crash-safe training
// needs from the RL layer: a replayable RNG source, in-place policy
// restores, and access to the optimizers inside PPO/A2C so their Adam
// moments can ride along in a checkpoint.

// CountingSource wraps math/rand's default source and counts every draw, so
// the generator's exact position can be checkpointed as (seed, draws) and
// restored by replaying that many draws. The wrapper is exact — rand.New
// uses the Source64 fast path, and the default source advances its state by
// exactly one step per Int63 or Uint64 call — so a *rand.Rand built on a
// CountingSource produces the same stream as one built on rand.NewSource
// with the same seed.
type CountingSource struct {
	src   rand.Source64
	seed  int64
	draws uint64
}

var _ rand.Source64 = (*CountingSource)(nil)

// NewCountingSource returns a counting source seeded like rand.NewSource.
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}
}

// Int63 implements rand.Source.
func (c *CountingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

// Uint64 implements rand.Source64.
func (c *CountingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// Seed implements rand.Source, resetting the draw count.
func (c *CountingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.seed = seed
	c.draws = 0
}

// RNGState pins a generator's exact position in its stream.
type RNGState struct {
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`
}

// State captures the source's current position.
func (c *CountingSource) State() RNGState {
	return RNGState{Seed: c.seed, Draws: c.draws}
}

// Restore rewinds the source to a captured position by reseeding and
// replaying the recorded number of draws. Cost is linear in Draws, which is
// bounded by a few draws per training episode — negligible next to the
// training compute the checkpoint saves.
func (c *CountingSource) Restore(st RNGState) {
	c.Seed(st.Seed)
	for i := uint64(0); i < st.Draws; i++ {
		c.src.Uint64()
	}
	c.draws = st.Draws
}

// Policy architecture tags used in PolicyState: a one-group policy is the
// joint actor, a policy of several groups the weight-shared one.
const (
	policyArchJoint  = "gaussian"
	policyArchShared = "shared-gaussian"
)

// PolicyState is a serializable snapshot of a GaussianPolicy.
type PolicyState struct {
	Arch   string      `json:"arch"`
	N      int         `json:"n,omitempty"` // group (device) count, shared arch only
	Net    nn.MLPState `json:"net"`
	LogStd []float64   `json:"log_std"`
}

// CapturePolicy snapshots a policy's parameters.
func CapturePolicy(p *GaussianPolicy) PolicyState {
	st := PolicyState{Arch: policyArchJoint, Net: p.Net.State(), LogStd: append([]float64(nil), p.LogStd...)}
	if p.Groups > 1 {
		st.Arch, st.N = policyArchShared, p.Groups
	}
	return st
}

// RestorePolicy copies a snapshot's parameters into an existing policy of
// the same architecture, in place: the policy's weight slices keep their
// identity so optimizer moment maps keyed on them stay valid. Nothing is
// written unless the whole snapshot fits.
func RestorePolicy(p *GaussianPolicy, st PolicyState) error {
	groups := 1
	switch st.Arch {
	case policyArchJoint:
	case policyArchShared:
		groups = st.N
	default:
		return fmt.Errorf("rl: checkpoint policy arch %q unknown", st.Arch)
	}
	if groups != p.Groups {
		return fmt.Errorf("rl: checkpoint policy has %d groups, policy has %d", groups, p.Groups)
	}
	if len(st.LogStd) != len(p.LogStd) {
		return fmt.Errorf("rl: checkpoint log-σ length %d, policy has %d", len(st.LogStd), len(p.LogStd))
	}
	if j := tensor.Vector(st.LogStd).FirstNonFinite(); j >= 0 {
		return fmt.Errorf("rl: checkpoint log-σ %d is %v, want finite", j, st.LogStd[j])
	}
	if err := p.Net.LoadState(st.Net); err != nil {
		return err
	}
	copy(p.LogStd, st.LogStd)
	p.lastS, p.lastMu = nil, nil
	return nil
}

// Optimizers exposes PPO's actor and critic Adam instances for
// checkpointing.
func (p *PPO) Optimizers() (actor, critic *nn.Adam) {
	return p.actorOpt, p.criticOpt
}

// Optimizers exposes A2C's actor and critic Adam instances for
// checkpointing.
func (a *A2C) Optimizers() (actor, critic *nn.Adam) {
	return a.actorOpt, a.criticOpt
}

// NormalizerState is a serializable snapshot of an observation normalizer.
type NormalizerState struct {
	Mean  []float64 `json:"mean"`
	M2    []float64 `json:"m2"`
	Count float64   `json:"count"`
	Clip  float64   `json:"clip"`
}

// Dim returns the snapshot's observation dimensionality.
func (st NormalizerState) Dim() int { return len(st.Mean) }

// StdDev returns the running standard deviation of dimension i under the
// same floor rules as ObsNormalizer.Std: 1 before any variance information
// exists, so consumers (the guard's OOD z-scores) divide by exactly the
// scale training normalization used.
func (st NormalizerState) StdDev(i int) float64 {
	if st.Count < 2 {
		return 1
	}
	v := st.M2[i] / st.Count
	if v < 1e-8 {
		return 1
	}
	return math.Sqrt(v)
}

// CaptureNormalizer snapshots a normalizer; nil maps to the zero state
// (Mean nil), letting checkpoints of norm-free runs round-trip.
func CaptureNormalizer(n *ObsNormalizer) NormalizerState {
	if n == nil {
		return NormalizerState{}
	}
	return NormalizerState{
		Mean:  append([]float64(nil), n.Mean...),
		M2:    append([]float64(nil), n.M2...),
		Count: n.Count,
		Clip:  n.Clip,
	}
}

// Validate checks that a snapshot can standardize states: equal lengths,
// finite means, and finite non-negative M2, Count and Clip. The zero state
// (no normalizer) is valid.
func (st NormalizerState) Validate() error {
	switch {
	case len(st.M2) != len(st.Mean):
		return fmt.Errorf("rl: normalizer has %d means and %d squared deviations", len(st.Mean), len(st.M2))
	case !finite(st.Count) || st.Count < 0:
		return fmt.Errorf("rl: normalizer count %v invalid", st.Count)
	case !finite(st.Clip) || st.Clip < 0:
		return fmt.Errorf("rl: normalizer clip %v invalid", st.Clip)
	}
	for i, m := range st.Mean {
		if !finite(m) || !finite(st.M2[i]) || st.M2[i] < 0 {
			return fmt.Errorf("rl: normalizer dimension %d has mean %v and squared deviation %v", i, m, st.M2[i])
		}
	}
	return nil
}

// RestoreNormalizer copies a validated snapshot into an existing
// normalizer; nothing is written if the snapshot is rejected.
func RestoreNormalizer(n *ObsNormalizer, st NormalizerState) error {
	if n == nil {
		if st.Mean == nil {
			return nil
		}
		return fmt.Errorf("rl: checkpoint has a normalizer, trainer does not")
	}
	if st.Mean == nil {
		return fmt.Errorf("rl: checkpoint has no normalizer state, trainer expects one")
	}
	if len(st.Mean) != n.Dim() {
		return fmt.Errorf("rl: checkpoint normalizer dim %d, trainer has %d", len(st.Mean), n.Dim())
	}
	if err := st.Validate(); err != nil {
		return err
	}
	copy(n.Mean, st.Mean)
	copy(n.M2, st.M2)
	n.Count = st.Count
	n.Clip = st.Clip
	return nil
}
