// Package rl implements the reinforcement-learning machinery of the paper's
// §IV: a diagonal-Gaussian actor for the continuous CPU-frequency action
// space, a value-function critic, generalized advantage estimation, an
// experience buffer, and the PPO-clip update used in Algorithm 1.
package rl

import (
	"math"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// log(2π), used by the Gaussian log-density.
var log2Pi = math.Log(2 * math.Pi)

// GaussianPolicy is a stochastic policy π(a|s) = N(μ(s), diag σ²) with a
// state-dependent mean produced by an MLP (tanh output, so μ ∈ (−1,1)) and
// a state-independent learned log-σ vector, the standard parameterization
// for continuous-control PPO.
type GaussianPolicy struct {
	// Net maps states to action means.
	Net *nn.MLP
	// LogStd holds log σ per action dimension.
	LogStd tensor.Vector
	// GLogStd accumulates gradients for LogStd.
	GLogStd tensor.Vector

	// lastS/lastMu cache the most recent LogProbBatch forward pass so an
	// immediately following BackwardLogProbBatch on the same S skips the
	// duplicate forward (see the ShardedPolicy contract). dmuBuf is the
	// reusable upstream-gradient buffer for the batched backward; sigBuf
	// holds the per-dimension σ hoisted out of the row loops.
	lastS  *tensor.Matrix
	lastMu *tensor.Matrix
	dmuBuf *tensor.Matrix
	sigBuf tensor.Vector

	// shardMode marks a CloneGradShard replica: its batched backward
	// overwrites GLogStd instead of accumulating, matching the set-grads
	// behavior of its nn.CloneGradOnly network.
	shardMode bool
}

// NewGaussianPolicy builds a policy for the given state/action dimensions
// with tanh hidden layers. initStd is the initial exploration σ.
func NewGaussianPolicy(stateDim, actionDim int, hidden []int, initStd float64, rng *rand.Rand) *GaussianPolicy {
	sizes := append(append([]int{stateDim}, hidden...), actionDim)
	p := &GaussianPolicy{
		Net:     nn.NewMLP(sizes, nn.Tanh, nn.Tanh, rng),
		LogStd:  tensor.NewVector(actionDim),
		GLogStd: tensor.NewVector(actionDim),
	}
	if initStd <= 0 {
		initStd = 0.5
	}
	p.LogStd.Fill(math.Log(initStd))
	return p
}

// ActionDim returns the action dimensionality.
func (p *GaussianPolicy) ActionDim() int { return len(p.LogStd) }

// StateDim returns the state dimensionality.
func (p *GaussianPolicy) StateDim() int { return p.Net.InDim() }

// Mean returns μ(s). The returned slice is owned by the network.
func (p *GaussianPolicy) Mean(s tensor.Vector) tensor.Vector {
	return p.Net.Forward(s)
}

// MeanInto computes μ(s) into dst without allocating the result.
func (p *GaussianPolicy) MeanInto(dst, s tensor.Vector) {
	if len(dst) != p.ActionDim() {
		panic("rl: policy action length mismatch")
	}
	copy(dst, p.Net.Forward(s))
}

// Sample draws a ~ N(μ(s), σ²) and returns the action with its log-density.
func (p *GaussianPolicy) Sample(s tensor.Vector, rng *rand.Rand) (tensor.Vector, float64) {
	mu := p.Mean(s)
	a := tensor.NewVector(len(mu))
	var logp float64
	for i := range mu {
		sigma := math.Exp(p.LogStd[i])
		a[i] = mu[i] + sigma*rng.NormFloat64()
		logp += gaussLogPDF(a[i], mu[i], sigma, p.LogStd[i])
	}
	return a, logp
}

// LogProb returns log π(a|s) under the current parameters.
func (p *GaussianPolicy) LogProb(s, a tensor.Vector) float64 {
	mu := p.Mean(s)
	var logp float64
	for i := range mu {
		sigma := math.Exp(p.LogStd[i])
		logp += gaussLogPDF(a[i], mu[i], sigma, p.LogStd[i])
	}
	return logp
}

// Entropy returns the differential entropy of the policy, which for a
// diagonal Gaussian depends only on σ: Σ_j (log σ_j + ½log 2πe).
func (p *GaussianPolicy) Entropy() float64 {
	var h float64
	for _, l := range p.LogStd {
		h += l + 0.5*(log2Pi+1)
	}
	return h
}

// BackwardLogProb backpropagates upstream·∇log π(a|s) into the network and
// LogStd gradient accumulators, assuming the mean for state s was just
// computed by Mean/LogProb (the MLP caches its last forward pass). It also
// returns log π(a|s) for convenience.
func (p *GaussianPolicy) BackwardLogProb(s, a tensor.Vector, upstream float64) float64 {
	mu := p.Mean(s)
	dmu := tensor.NewVector(len(mu))
	var logp float64
	for i := range mu {
		sigma := math.Exp(p.LogStd[i])
		z := (a[i] - mu[i]) / sigma
		logp += gaussLogPDF(a[i], mu[i], sigma, p.LogStd[i])
		// ∂logp/∂μ = (a−μ)/σ²; ∂logp/∂logσ = z² − 1.
		dmu[i] = upstream * z / sigma
		p.GLogStd[i] += upstream * (z*z - 1)
	}
	p.Net.Backward(dmu)
	return logp
}

// sigmas refreshes and returns the hoisted per-dimension σ buffer. Each σ
// is the same math.Exp value the per-sample loops compute, just evaluated
// once per batch instead of once per row.
func (p *GaussianPolicy) sigmas() tensor.Vector {
	d := len(p.LogStd)
	if cap(p.sigBuf) < d {
		p.sigBuf = tensor.NewVector(d)
	}
	sig := p.sigBuf[:d]
	for j, l := range p.LogStd {
		sig[j] = math.Exp(l)
	}
	return sig
}

// LogProbBatch implements ShardedPolicy: it computes log π(a|s) for every
// (state, action) row pair with one batched network pass. out[i] is
// bit-identical to LogProb(S.Row(i), A.Row(i)).
func (p *GaussianPolicy) LogProbBatch(S, A *tensor.Matrix, out tensor.Vector) {
	n := p.checkBatch(S, A, len(out))
	mu := p.Net.ForwardBatch(S)
	p.lastS, p.lastMu = S, mu
	sig := p.sigmas()
	for i := 0; i < n; i++ {
		murow, arow := mu.Row(i), A.Row(i)
		var logp float64
		for j := range murow {
			logp += gaussLogPDF(arow[j], murow[j], sig[j], p.LogStd[j])
		}
		out[i] = logp
	}
}

// BackwardLogProbBatch implements ShardedPolicy: it accumulates
// Σ_i upstream[i]·∇log π(a_i|s_i) into the parameter gradients with one
// batched forward/backward pass. Rows with upstream 0 contribute no
// gradient, mirroring a skipped per-sample BackwardLogProb call.
func (p *GaussianPolicy) BackwardLogProbBatch(S, A *tensor.Matrix, upstream tensor.Vector) {
	n := p.checkBatch(S, A, len(upstream))
	mu := p.lastMu
	if p.lastS != S || mu == nil || mu.Rows != n {
		mu = p.Net.ForwardBatch(S)
	}
	p.lastS, p.lastMu = nil, nil
	if p.shardMode {
		p.GLogStd.Zero() // replicas set, not accumulate (see CloneGradShard)
	}
	p.dmuBuf = tensor.EnsureShape(p.dmuBuf, n, p.ActionDim())
	dmu := p.dmuBuf
	dmu.Zero()
	sig := p.sigmas()
	for i := 0; i < n; i++ {
		u := upstream[i]
		if u == 0 {
			continue
		}
		murow, arow, drow := mu.Row(i), A.Row(i), dmu.Row(i)
		for j := range murow {
			sigma := sig[j]
			z := (arow[j] - murow[j]) / sigma
			// ∂logp/∂μ = (a−μ)/σ²; ∂logp/∂logσ = z² − 1.
			drow[j] = u * z / sigma
			p.GLogStd[j] += u * (z*z - 1)
		}
	}
	p.Net.BackwardBatchParams(dmu)
}

// CloneGradShard implements ShardedPolicy: the replica shares the mean
// network's weights and the LogStd vector with p, owns private gradient
// accumulators, and runs the serial set-grads kernels of nn.CloneGradOnly.
func (p *GaussianPolicy) CloneGradShard() ShardedPolicy {
	return &GaussianPolicy{
		Net:       p.Net.CloneGradOnly(),
		LogStd:    p.LogStd, // shared: replicas always see live parameters
		GLogStd:   tensor.NewVector(len(p.LogStd)),
		shardMode: true,
	}
}

func (p *GaussianPolicy) checkBatch(S, A *tensor.Matrix, n int) int {
	if S.Rows != n || A.Rows != n || S.Cols != p.StateDim() || A.Cols != p.ActionDim() {
		panic("rl: batch shape mismatch")
	}
	return n
}

// AddEntropyGrad accumulates coef·∇H. Since ∂H/∂logσ_j = 1, this simply
// adds coef to each LogStd gradient.
func (p *GaussianPolicy) AddEntropyGrad(coef float64) {
	for i := range p.GLogStd {
		p.GLogStd[i] += coef
	}
}

// ZeroGrad clears all gradient accumulators.
func (p *GaussianPolicy) ZeroGrad() {
	p.Net.ZeroGrad()
	p.GLogStd.Zero()
}

// Params returns all trainable parameters (network weights plus LogStd).
func (p *GaussianPolicy) Params() []nn.Param {
	ps := p.Net.Params()
	ps = append(ps, nn.Param{Name: "logstd", W: p.LogStd, G: p.GLogStd})
	return ps
}

// Clone deep-copies the policy (for the θ_old snapshot of Algorithm 1).
func (p *GaussianPolicy) Clone() *GaussianPolicy {
	return &GaussianPolicy{
		Net:     p.Net.Clone(),
		LogStd:  p.LogStd.Clone(),
		GLogStd: tensor.NewVector(len(p.LogStd)),
	}
}

// ClonePolicy implements Policy.
func (p *GaussianPolicy) ClonePolicy() Policy { return p.Clone() }

// CopyFrom copies parameters from src (θ_old ← θ). It panics if src is not
// a *GaussianPolicy of the same architecture.
func (p *GaussianPolicy) CopyFrom(src Policy) {
	s, ok := src.(*GaussianPolicy)
	if !ok {
		panic("rl: CopyFrom with mismatched policy type")
	}
	p.Net.CopyParamsFrom(s.Net)
	copy(p.LogStd, s.LogStd)
	p.lastS, p.lastMu = nil, nil // parameters changed: cached forward is stale
}

func gaussLogPDF(x, mu, sigma, logSigma float64) float64 {
	z := (x - mu) / sigma
	return -0.5*z*z - logSigma - 0.5*log2Pi
}
