// Package rl implements the reinforcement-learning machinery of the paper's
// §IV: a diagonal-Gaussian actor for the continuous CPU-frequency action
// space (one network over the whole state, or one weight-shared network per
// device), a value-function critic, generalized advantage estimation, an
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

// Policy is a stochastic continuous-action policy trainable by PPO.
// GaussianPolicy is its implementation; PPO, A2C and the imitator accept no
// other.
type Policy interface {
	// StateDim returns the expected state length.
	StateDim() int
	// ActionDim returns the action length.
	ActionDim() int
	// Mean returns μ(s); the slice may be owned by the policy.
	Mean(s tensor.Vector) tensor.Vector
	// MeanInto computes μ(s) into dst (length ActionDim), bit-identical to
	// Mean: the online-reasoning entry point.
	MeanInto(dst, s tensor.Vector)
	// Sample draws a ~ π(·|s) and returns it with log π(a|s).
	Sample(s tensor.Vector, rng *rand.Rand) (tensor.Vector, float64)
	// LogProb returns log π(a|s).
	LogProb(s, a tensor.Vector) float64
	// BackwardLogProb accumulates upstream·∇log π(a|s) into the parameter
	// gradients and returns log π(a|s).
	BackwardLogProb(s, a tensor.Vector, upstream float64) float64
	// AddEntropyGrad accumulates coef·∇H(π).
	AddEntropyGrad(coef float64)
	// Entropy returns the policy entropy H(π).
	Entropy() float64
	// ZeroGrad clears gradient accumulators.
	ZeroGrad()
	// Params exposes all trainable parameters.
	Params() []nn.Param
	// ClonePolicy deep-copies the policy (a rollout job's private copy).
	ClonePolicy() Policy
	// CopyFrom copies parameters from a policy of the same concrete type.
	CopyFrom(src Policy)
}

var _ Policy = (*GaussianPolicy)(nil)

// GaussianPolicy is a stochastic policy π(a|s) = N(μ(s), diag σ²) with a
// state-dependent mean produced by an MLP (tanh output, so μ ∈ (−1,1)) and
// a state-independent learned log-σ vector, the standard parameterization
// for continuous-control PPO.
//
// The state is Groups equal slices. Net maps one slice to len(LogStd)
// means, and each σ is shared across the groups, so the action is
// Groups·len(LogStd) long, group by group. Groups = 1 is the paper's joint
// actor (Fig. 5: one network from the whole state to every device's
// frequency). Groups = N with one output is the weight-shared per-device
// actor: one network over each device's H+1 bandwidth-slot history. Weight
// sharing turns every device in every iteration into a training example for
// the same network, which is what makes the 50-device simulation of Fig. 8
// learnable at the paper's sample budget.
type GaussianPolicy struct {
	// Net maps one state slice to its len(LogStd) action means.
	Net *nn.MLP
	// Groups is the number of state slices Net is applied to (≥ 1).
	Groups int
	// LogStd holds log σ per network output, shared by every group.
	LogStd tensor.Vector
	// GLogStd accumulates gradients for LogStd.
	GLogStd tensor.Vector

	// lastS/lastMu cache the most recent LogProbBatch forward pass so an
	// immediately following BackwardLogProbBatch on the same S skips the
	// duplicate forward. dmuBuf is the reusable upstream-gradient buffer for
	// the batched backward; rows is the persistent header groupRows
	// reinterprets states through; sigBuf holds the per-output σ hoisted out
	// of the row loops.
	lastS  *tensor.Matrix
	lastMu *tensor.Matrix
	dmuBuf *tensor.Matrix
	rows   tensor.Matrix
	sigBuf tensor.Vector

	// shardMode marks a cloneGradShard replica: its batched backward
	// overwrites GLogStd instead of accumulating, matching the set-grads
	// behavior of its nn.CloneGradOnly network.
	shardMode bool
}

// NewGaussianPolicy builds the joint actor (Groups = 1): one network from
// the stateDim-long state to actionDim means, with tanh hidden layers.
// initStd is the initial exploration σ.
func NewGaussianPolicy(stateDim, actionDim int, hidden []int, initStd float64, rng *rand.Rand) *GaussianPolicy {
	return newGaussianPolicy(1, stateDim, actionDim, hidden, initStd, rng)
}

// NewSharedGaussianPolicy builds the weight-shared actor (Groups = n): one
// network from each device's perDev inputs to its action mean, with tanh
// hidden layers and a single σ for all devices.
func NewSharedGaussianPolicy(n, perDev int, hidden []int, initStd float64, rng *rand.Rand) *GaussianPolicy {
	if n <= 0 || perDev <= 0 {
		panic("rl: shared policy needs positive device count and per-device dim")
	}
	return newGaussianPolicy(n, perDev, 1, hidden, initStd, rng)
}

func newGaussianPolicy(groups, in, out int, hidden []int, initStd float64, rng *rand.Rand) *GaussianPolicy {
	sizes := append(append([]int{in}, hidden...), out)
	p := &GaussianPolicy{
		Net:     nn.NewMLP(sizes, nn.Tanh, nn.Tanh, rng),
		Groups:  groups,
		LogStd:  tensor.NewVector(out),
		GLogStd: tensor.NewVector(out),
	}
	if initStd <= 0 {
		initStd = 0.5
	}
	p.LogStd.Fill(math.Log(initStd))
	return p
}

// ActionDim returns the action dimensionality, Groups·len(LogStd).
func (p *GaussianPolicy) ActionDim() int { return p.Groups * len(p.LogStd) }

// StateDim returns the state dimensionality, Groups·Net.InDim().
func (p *GaussianPolicy) StateDim() int { return p.Groups * p.Net.InDim() }

func (p *GaussianPolicy) checkState(s tensor.Vector) {
	if len(s) != p.StateDim() {
		panic("rl: policy state length mismatch")
	}
}

// slice returns group g's part of the state.
func (p *GaussianPolicy) slice(s tensor.Vector, g int) tensor.Vector {
	in := p.Net.InDim()
	return s[g*in : (g+1)*in]
}

// Mean returns μ(s) with one Forward per group. For one group the returned
// slice is owned by the network; otherwise it is freshly allocated.
func (p *GaussianPolicy) Mean(s tensor.Vector) tensor.Vector {
	p.checkState(s)
	if p.Groups == 1 {
		return p.Net.Forward(s)
	}
	k := len(p.LogStd)
	out := tensor.NewVector(p.ActionDim())
	for g := 0; g < p.Groups; g++ {
		copy(out[g*k:], p.Net.Forward(p.slice(s, g)))
	}
	return out
}

// MeanInto computes μ(s) into dst without allocating the result: a
// single-row Forward for one group, otherwise one ForwardBatch over the
// state reinterpreted (zero-copy) as Groups rows. Each row of ForwardBatch
// is bit-identical to the corresponding Forward call, so MeanInto returns
// exactly what Mean returns; only the batching changes.
func (p *GaussianPolicy) MeanInto(dst, s tensor.Vector) {
	p.checkState(s)
	if len(dst) != p.ActionDim() {
		panic("rl: policy action length mismatch")
	}
	if p.Groups == 1 {
		copy(dst, p.Net.Forward(s))
		return
	}
	copy(dst, p.Net.ForwardBatch(p.groupRows(1, s)).Data)
}

// Sample draws a ~ N(μ(s), σ²) and returns the action with its log-density.
func (p *GaussianPolicy) Sample(s tensor.Vector, rng *rand.Rand) (tensor.Vector, float64) {
	mu := p.Mean(s)
	a := tensor.NewVector(len(mu))
	sig := p.sigmas()
	var logp float64
	for c := 0; c < len(mu); c += len(sig) {
		for j, l := range p.LogStd {
			a[c+j] = mu[c+j] + sig[j]*rng.NormFloat64()
			logp += gaussLogPDF(a[c+j], mu[c+j], sig[j], l)
		}
	}
	return a, logp
}

// LogProb returns log π(a|s) under the current parameters, with one Forward
// per group.
func (p *GaussianPolicy) LogProb(s, a tensor.Vector) float64 {
	p.checkState(s)
	sig := p.sigmas()
	var logp float64
	for g := 0; g < p.Groups; g++ {
		mu := p.Net.Forward(p.slice(s, g))
		for j, l := range p.LogStd {
			logp += gaussLogPDF(a[g*len(mu)+j], mu[j], sig[j], l)
		}
	}
	return logp
}

// Entropy returns the differential entropy of the policy, which for a
// diagonal Gaussian depends only on σ: Groups·Σ_j (log σ_j + ½log 2πe).
func (p *GaussianPolicy) Entropy() float64 {
	var h float64
	for _, l := range p.LogStd {
		h += l + 0.5*(log2Pi+1)
	}
	return float64(p.Groups) * h
}

// BackwardLogProb backpropagates upstream·∇log π(a|s) into the network and
// LogStd gradient accumulators, with one Forward and one Backward per
// group, and returns log π(a|s).
func (p *GaussianPolicy) BackwardLogProb(s, a tensor.Vector, upstream float64) float64 {
	p.checkState(s)
	if len(a) != p.ActionDim() {
		panic("rl: policy action length mismatch")
	}
	sig := p.sigmas()
	dmu := tensor.NewVector(len(sig))
	var logp float64
	for g := 0; g < p.Groups; g++ {
		mu := p.Net.Forward(p.slice(s, g))
		for j, l := range p.LogStd {
			x := a[g*len(mu)+j]
			z := (x - mu[j]) / sig[j]
			logp += gaussLogPDF(x, mu[j], sig[j], l)
			// ∂logp/∂μ = (a−μ)/σ²; ∂logp/∂logσ = z² − 1.
			dmu[j] = upstream * z / sig[j]
			p.GLogStd[j] += upstream * (z*z - 1)
		}
		p.Net.Backward(dmu)
	}
	return logp
}

// sigmas refreshes and returns the hoisted per-output σ buffer. Each σ is
// the same math.Exp value a per-element loop would compute, just evaluated
// once per call instead of once per element.
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

// groupRows reinterprets n states stored row-major in data as n·Groups
// network input rows, zero-copy, through the policy's persistent header.
// The view stays valid until the next groupRows call, which is exactly the
// forward→backward window the layer input-reference contract requires.
func (p *GaussianPolicy) groupRows(n int, data []float64) *tensor.Matrix {
	p.rows.Rows, p.rows.Cols, p.rows.Data = n*p.Groups, p.Net.InDim(), data
	return &p.rows
}

// LogProbBatch computes log π(a|s) for every (state, action) row pair with
// one batched network pass over the n·Groups group rows. Read row-major, the
// network's output is the n×ActionDim mean matrix. out[i] is bit-identical
// to LogProb(S.Row(i), A.Row(i)).
func (p *GaussianPolicy) LogProbBatch(S, A *tensor.Matrix, out tensor.Vector) {
	n := p.checkBatch(S, A, len(out))
	mu := p.Net.ForwardBatch(p.groupRows(n, S.Data))
	p.lastS, p.lastMu = S, mu
	sig, m := p.sigmas(), A.Cols
	for i := 0; i < n; i++ {
		murow, arow := mu.Data[i*m:(i+1)*m], A.Row(i)
		var logp float64
		for c := 0; c < m; c += len(sig) {
			for j, l := range p.LogStd {
				logp += gaussLogPDF(arow[c+j], murow[c+j], sig[j], l)
			}
		}
		out[i] = logp
	}
}

// BackwardLogProbBatch accumulates Σ_i upstream[i]·∇log π(a_i|s_i) into the
// parameter gradients with one batched forward/backward pass, in (sample,
// group, output) order: the order of BackwardLogProb applied in ascending
// row order. Rows with upstream 0 contribute no gradient, mirroring a
// skipped per-sample call. When S is the matrix of an immediately
// preceding LogProbBatch, with parameters and S contents unchanged in
// between (as in the engine's block waves), the cached forward pass is
// reused instead of recomputed.
func (p *GaussianPolicy) BackwardLogProbBatch(S, A *tensor.Matrix, upstream tensor.Vector) {
	n := p.checkBatch(S, A, len(upstream))
	mu := p.lastMu
	if p.lastS != S || mu == nil || mu.Rows != n*p.Groups {
		mu = p.Net.ForwardBatch(p.groupRows(n, S.Data))
	}
	p.lastS, p.lastMu = nil, nil
	if p.shardMode {
		p.GLogStd.Zero() // replicas set, not accumulate (see cloneGradShard)
	}
	p.dmuBuf = tensor.EnsureShape(p.dmuBuf, mu.Rows, mu.Cols)
	dmu := p.dmuBuf
	dmu.Zero()
	sig, m := p.sigmas(), A.Cols
	for i := 0; i < n; i++ {
		u := upstream[i]
		if u == 0 {
			continue
		}
		murow, arow, drow := mu.Data[i*m:(i+1)*m], A.Row(i), dmu.Data[i*m:(i+1)*m]
		for c := 0; c < m; c += len(sig) {
			for j := range sig {
				z := (arow[c+j] - murow[c+j]) / sig[j]
				// ∂logp/∂μ = (a−μ)/σ²; ∂logp/∂logσ = z² − 1.
				drow[c+j] = u * z / sig[j]
				p.GLogStd[j] += u * (z*z - 1)
			}
		}
	}
	p.Net.BackwardBatchParams(dmu)
}

// cloneGradShard returns a gradient replica for the update engine: it
// shares the network's weights and the LogStd vector with p, owns private
// gradient accumulators and forward caches, and runs the set-grads backward
// of nn.CloneGradOnly, overwriting rather than accumulating its gradients on
// each BackwardLogProbBatch call.
func (p *GaussianPolicy) cloneGradShard() *GaussianPolicy {
	return &GaussianPolicy{
		Net:       p.Net.CloneGradOnly(),
		Groups:    p.Groups,
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

// AddEntropyGrad accumulates coef·∇H. Since ∂H/∂logσ_j = Groups, this adds
// coef·Groups to each LogStd gradient.
func (p *GaussianPolicy) AddEntropyGrad(coef float64) {
	for i := range p.GLogStd {
		p.GLogStd[i] += coef * float64(p.Groups)
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

// Clone deep-copies the policy.
func (p *GaussianPolicy) Clone() *GaussianPolicy {
	return &GaussianPolicy{
		Net:     p.Net.Clone(),
		Groups:  p.Groups,
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
	if !ok || s.Groups != p.Groups {
		panic("rl: CopyFrom with mismatched policy")
	}
	p.Net.CopyParamsFrom(s.Net)
	copy(p.LogStd, s.LogStd)
	p.lastS, p.lastMu = nil, nil // parameters changed: cached forward is stale
}

func gaussLogPDF(x, mu, sigma, logSigma float64) float64 {
	z := (x - mu) / sigma
	return -0.5*z*z - logSigma - 0.5*log2Pi
}
