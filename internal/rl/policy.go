package rl

import (
	"math"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Policy is a stochastic continuous-action policy trainable by PPO. Both
// the joint actor of the paper's Fig. 5 (one network maps the whole state
// to all device frequencies) and the weight-shared per-device actor
// implement it.
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
	// ClonePolicy deep-copies the policy (the θ_old snapshot).
	ClonePolicy() Policy
	// CopyFrom copies parameters from a policy of the same concrete type.
	CopyFrom(src Policy)
}

// SharedGaussianPolicy applies one small per-device network to each
// device's slice of the state (its H+1 bandwidth-slot history), producing
// that device's action mean; a single log-σ is shared by all devices. With
// N devices the state must be N·perDev long. Weight sharing turns every
// device in every iteration into a training example for the same network,
// which is what makes the 50-device simulation of Fig. 8 learnable at the
// paper's sample budget.
type SharedGaussianPolicy struct {
	// Net maps one device's perDev-long history slice to its action mean.
	Net *nn.MLP
	// N is the number of devices.
	N int
	// LogStd is the shared log-σ (one scalar stored as a length-1 vector).
	LogStd tensor.Vector
	// GLogStd accumulates its gradient.
	GLogStd tensor.Vector

	// lastS/lastMu cache the most recent LogProbBatch forward pass so an
	// immediately following BackwardLogProbBatch on the same S skips the
	// duplicate forward (see the ShardedPolicy contract). dmuBuf is the
	// reusable upstream-gradient buffer for the batched backward; devView
	// is the persistent header deviceRows reinterprets batches through.
	lastS   *tensor.Matrix
	lastMu  *tensor.Matrix
	dmuBuf  *tensor.Matrix
	devView tensor.Matrix

	// shardMode marks a CloneGradShard replica: its batched backward
	// overwrites GLogStd instead of accumulating, matching the set-grads
	// behavior of its nn.CloneGradOnly network.
	shardMode bool
}

var _ Policy = (*SharedGaussianPolicy)(nil)
var _ Policy = (*GaussianPolicy)(nil)

// NewSharedGaussianPolicy builds the weight-shared actor: perDev inputs per
// device, tanh hidden layers, one tanh output.
func NewSharedGaussianPolicy(n, perDev int, hidden []int, initStd float64, rng *rand.Rand) *SharedGaussianPolicy {
	if n <= 0 || perDev <= 0 {
		panic("rl: shared policy needs positive device count and per-device dim")
	}
	sizes := append(append([]int{perDev}, hidden...), 1)
	p := &SharedGaussianPolicy{
		Net:     nn.NewMLP(sizes, nn.Tanh, nn.Tanh, rng),
		N:       n,
		LogStd:  tensor.NewVector(1),
		GLogStd: tensor.NewVector(1),
	}
	if initStd <= 0 {
		initStd = 0.5
	}
	p.LogStd[0] = math.Log(initStd)
	return p
}

// StateDim implements Policy.
func (p *SharedGaussianPolicy) StateDim() int { return p.N * p.Net.InDim() }

// ActionDim implements Policy.
func (p *SharedGaussianPolicy) ActionDim() int { return p.N }

func (p *SharedGaussianPolicy) slice(s tensor.Vector, i int) tensor.Vector {
	per := p.Net.InDim()
	return s[i*per : (i+1)*per]
}

// Mean implements Policy; the returned vector is freshly allocated.
func (p *SharedGaussianPolicy) Mean(s tensor.Vector) tensor.Vector {
	p.checkState(s)
	out := tensor.NewVector(p.N)
	for i := 0; i < p.N; i++ {
		out[i] = p.Net.Forward(p.slice(s, i))[0]
	}
	return out
}

// MeanInto computes μ(s) into dst with one fleet-batched float64 forward:
// the state is reinterpreted (zero-copy) as N per-device rows and pushed
// through the shared network in a single pass. Each row of ForwardBatch is
// bit-identical to the corresponding per-device Forward call, so MeanInto
// returns exactly what Mean returns — only the batching changes.
func (p *SharedGaussianPolicy) MeanInto(dst, s tensor.Vector) {
	p.checkState(s)
	if len(dst) != p.N {
		panic("rl: shared policy action length mismatch")
	}
	p.devView.Rows, p.devView.Cols, p.devView.Data = p.N, p.Net.InDim(), s
	mu := p.Net.ForwardBatch(&p.devView)
	for i := 0; i < p.N; i++ {
		dst[i] = mu.Data[i*mu.Cols]
	}
}

func (p *SharedGaussianPolicy) checkState(s tensor.Vector) {
	if len(s) != p.StateDim() {
		panic("rl: shared policy state length mismatch")
	}
}

// Sample implements Policy.
func (p *SharedGaussianPolicy) Sample(s tensor.Vector, rng *rand.Rand) (tensor.Vector, float64) {
	mu := p.Mean(s)
	sigma := math.Exp(p.LogStd[0])
	a := tensor.NewVector(p.N)
	var logp float64
	for i := range mu {
		a[i] = mu[i] + sigma*rng.NormFloat64()
		logp += gaussLogPDF(a[i], mu[i], sigma, p.LogStd[0])
	}
	return a, logp
}

// LogProb implements Policy.
func (p *SharedGaussianPolicy) LogProb(s, a tensor.Vector) float64 {
	mu := p.Mean(s)
	sigma := math.Exp(p.LogStd[0])
	var logp float64
	for i := range mu {
		logp += gaussLogPDF(a[i], mu[i], sigma, p.LogStd[0])
	}
	return logp
}

// BackwardLogProb implements Policy: it re-runs each device's forward pass
// and immediately backpropagates that device's mean gradient, so the
// shared network accumulates all N contributions.
func (p *SharedGaussianPolicy) BackwardLogProb(s, a tensor.Vector, upstream float64) float64 {
	p.checkState(s)
	if len(a) != p.N {
		panic("rl: shared policy action length mismatch")
	}
	sigma := math.Exp(p.LogStd[0])
	var logp float64
	dmu := tensor.NewVector(1)
	for i := 0; i < p.N; i++ {
		xs := p.slice(s, i)
		mu := p.Net.Forward(xs)[0]
		z := (a[i] - mu) / sigma
		logp += gaussLogPDF(a[i], mu, sigma, p.LogStd[0])
		dmu[0] = upstream * z / sigma
		p.Net.Backward(dmu)
		p.GLogStd[0] += upstream * (z*z - 1)
	}
	return logp
}

// LogProbBatch implements ShardedPolicy. The batch of full states (one row
// per sample, N·perDev wide) is reinterpreted — zero-copy, thanks to
// row-major layout — as a (n·N)×perDev matrix of per-device histories and
// pushed through the shared network in one pass. out[i] is bit-identical to
// LogProb(S.Row(i), A.Row(i)).
func (p *SharedGaussianPolicy) LogProbBatch(S, A *tensor.Matrix, out tensor.Vector) {
	n := p.checkBatch(S, A, len(out))
	mu := p.Net.ForwardBatch(p.deviceRows(S))
	p.lastS, p.lastMu = S, mu
	sigma := math.Exp(p.LogStd[0])
	for i := 0; i < n; i++ {
		arow := A.Row(i)
		var logp float64
		for d := 0; d < p.N; d++ {
			logp += gaussLogPDF(arow[d], mu.Data[i*p.N+d], sigma, p.LogStd[0])
		}
		out[i] = logp
	}
}

// BackwardLogProbBatch implements ShardedPolicy: one batched forward/backward
// over all n·N device rows, accumulating gradients in (sample, device)
// order — the same order the per-sample BackwardLogProb loop uses.
func (p *SharedGaussianPolicy) BackwardLogProbBatch(S, A *tensor.Matrix, upstream tensor.Vector) {
	n := p.checkBatch(S, A, len(upstream))
	mu := p.lastMu
	if p.lastS != S || mu == nil || mu.Rows != n*p.N {
		mu = p.Net.ForwardBatch(p.deviceRows(S))
	}
	p.lastS, p.lastMu = nil, nil
	if p.shardMode {
		p.GLogStd.Zero() // replicas set, not accumulate (see CloneGradShard)
	}
	sigma := math.Exp(p.LogStd[0])
	p.dmuBuf = tensor.EnsureShape(p.dmuBuf, n*p.N, 1)
	dmu := p.dmuBuf
	dmu.Zero()
	for i := 0; i < n; i++ {
		u := upstream[i]
		if u == 0 {
			continue
		}
		arow := A.Row(i)
		for d := 0; d < p.N; d++ {
			z := (arow[d] - mu.Data[i*p.N+d]) / sigma
			dmu.Data[i*p.N+d] = u * z / sigma
			p.GLogStd[0] += u * (z*z - 1)
		}
	}
	p.Net.BackwardBatchParams(dmu)
}

// CloneGradShard implements ShardedPolicy: the replica shares the per-device
// network's weights and the LogStd vector with p, owns private gradient
// accumulators, and runs the serial set-grads kernels of nn.CloneGradOnly.
func (p *SharedGaussianPolicy) CloneGradShard() ShardedPolicy {
	return &SharedGaussianPolicy{
		Net:       p.Net.CloneGradOnly(),
		N:         p.N,
		LogStd:    p.LogStd, // shared: replicas always see live parameters
		GLogStd:   tensor.NewVector(1),
		shardMode: true,
	}
}

// deviceRows reinterprets a batch of full states as per-device input rows,
// reusing the policy's persistent header. The view stays valid until the
// next deviceRows call, which is exactly the forward→backward window the
// layer input-reference contract requires.
func (p *SharedGaussianPolicy) deviceRows(S *tensor.Matrix) *tensor.Matrix {
	p.devView.Rows, p.devView.Cols, p.devView.Data = S.Rows*p.N, p.Net.InDim(), S.Data
	return &p.devView
}

func (p *SharedGaussianPolicy) checkBatch(S, A *tensor.Matrix, n int) int {
	if S.Rows != n || A.Rows != n || S.Cols != p.StateDim() || A.Cols != p.N {
		panic("rl: shared policy batch shape mismatch")
	}
	return n
}

// AddEntropyGrad implements Policy: H = N·(logσ + ½log 2πe), so
// ∂H/∂logσ = N.
func (p *SharedGaussianPolicy) AddEntropyGrad(coef float64) {
	p.GLogStd[0] += coef * float64(p.N)
}

// Entropy implements Policy.
func (p *SharedGaussianPolicy) Entropy() float64 {
	return float64(p.N) * (p.LogStd[0] + 0.5*(log2Pi+1))
}

// ZeroGrad implements Policy.
func (p *SharedGaussianPolicy) ZeroGrad() {
	p.Net.ZeroGrad()
	p.GLogStd.Zero()
}

// Params implements Policy.
func (p *SharedGaussianPolicy) Params() []nn.Param {
	ps := p.Net.Params()
	return append(ps, nn.Param{Name: "logstd", W: p.LogStd, G: p.GLogStd})
}

// ClonePolicy implements Policy.
func (p *SharedGaussianPolicy) ClonePolicy() Policy {
	return &SharedGaussianPolicy{
		Net:     p.Net.Clone(),
		N:       p.N,
		LogStd:  p.LogStd.Clone(),
		GLogStd: tensor.NewVector(1),
	}
}

// CopyFrom implements Policy.
func (p *SharedGaussianPolicy) CopyFrom(src Policy) {
	s, ok := src.(*SharedGaussianPolicy)
	if !ok {
		panic("rl: CopyFrom with mismatched policy type")
	}
	p.Net.CopyParamsFrom(s.Net)
	copy(p.LogStd, s.LogStd)
	p.lastS, p.lastMu = nil, nil // parameters changed: cached forward is stale
}
