package rl

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Imitator fine-tunes a policy by behavior cloning: maximum-likelihood
// regression of the policy onto (state, action) pairs logged by the guard
// (the safe expert's served plans on drifted inputs, plus the actor's own
// clean decisions as anchors against forgetting). One Step minimizes the
// batch NLL −mean_i log π(a_i|s_i) with a clipped Adam step.
//
// The forward/backward waves run on the same fixed-block shard engine as
// the PPO update, so imitation inherits its contract unchanged: the
// resulting parameters are bit-identical at any worker count.
type Imitator struct {
	actor       *GaussianPolicy
	params      []nn.Param
	opt         *nn.Adam
	engine      *shardEngine
	maxGradNorm float64

	logp     tensor.Vector
	upstream tensor.Vector
}

// NewImitator builds an imitation fine-tuner around the actor; lr and
// maxGradNorm mirror PPOConfig.LR/MaxGradNorm. Imitation runs no critic, so
// its engine holds none and clones no critic replicas.
func NewImitator(actor *GaussianPolicy, lr, maxGradNorm float64, workers int) (*Imitator, error) {
	if actor == nil {
		return nil, fmt.Errorf("rl: imitator needs an actor")
	}
	if lr <= 0 {
		return nil, fmt.Errorf("rl: imitation learning rate %v must be positive", lr)
	}
	if maxGradNorm <= 0 {
		return nil, fmt.Errorf("rl: imitation gradient clip %v must be positive", maxGradNorm)
	}
	return &Imitator{
		actor:       actor,
		params:      actor.Params(),
		opt:         nn.NewAdam(lr),
		engine:      newShardEngine(actor, nil, workers),
		maxGradNorm: maxGradNorm,
	}, nil
}

// Step runs one full-batch NLL descent step over the row-aligned state and
// action matrices and returns the batch NLL measured before the step. A
// non-finite loss (poisoned log entries) skips the parameter update and
// errors instead of corrupting the candidate.
func (im *Imitator) Step(S, A *tensor.Matrix) (float64, error) {
	m := S.Rows
	switch {
	case m == 0:
		return 0, fmt.Errorf("rl: imitation step on an empty batch")
	case A.Rows != m:
		return 0, fmt.Errorf("rl: imitation batch has %d states for %d actions", m, A.Rows)
	case S.Cols != im.actor.StateDim():
		return 0, fmt.Errorf("rl: imitation state dim %d, want %d", S.Cols, im.actor.StateDim())
	case A.Cols != im.actor.ActionDim():
		return 0, fmt.Errorf("rl: imitation action dim %d, want %d", A.Cols, im.actor.ActionDim())
	}
	if cap(im.logp) < m {
		im.logp = tensor.NewVector(m)
		im.upstream = tensor.NewVector(m)
	}
	im.logp = im.logp[:m]
	im.upstream = im.upstream[:m]
	im.engine.forward(S, A, im.logp, false)
	var nll float64
	g := -1.0 / float64(m)
	for i, lp := range im.logp {
		nll -= lp
		im.upstream[i] = g
	}
	nll /= float64(m)
	if math.IsNaN(nll) || math.IsInf(nll, 0) {
		return nll, fmt.Errorf("rl: non-finite imitation loss %v", nll)
	}
	im.engine.backward(im.upstream, nil, nil, false)
	norm := nn.GradNorm(im.params)
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		return nll, fmt.Errorf("rl: non-finite imitation gradient norm %v", norm)
	}
	im.opt.StepScaled(im.params, nn.ClipScale(norm, im.maxGradNorm))
	return nll, nil
}
