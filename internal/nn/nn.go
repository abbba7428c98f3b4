// Package nn implements the small feed-forward neural networks used by the
// DRL agent: fully-connected layers with tanh or identity activations,
// manual reverse-mode backpropagation, a Xavier-style initializer and the
// Adam optimizer. Everything is float64 and pure stdlib; the tests check the
// analytic gradients against finite differences.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Activation identifies an elementwise nonlinearity.
type Activation int

// Supported activations: every network the repository builds is tanh in
// its hidden layers and tanh or identity at its output.
const (
	Identity Activation = iota
	Tanh
)

// String returns the activation's name.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// deriv computes dσ/dx given the post-activation y.
func (a Activation) deriv(y float64) float64 {
	switch a {
	case Identity:
		return 1
	case Tanh:
		return 1 - y*y
	default:
		panic("nn: unknown activation")
	}
}

// applyBatch evaluates the activation elementwise over src into dst (equal
// lengths; they may alias). Tanh uses tensor.FastTanh (the Eigen/XLA rational
// evaluated in float64, max error < 5e-7 vs math.Tanh): the approximation
// error is orders of magnitude below gradient noise while roughly tripling
// activation throughput, and tensor.FastTanhInto evaluates it four lanes at
// a time with the same bits. Forward and ForwardBatch both call applyBatch,
// so the per-sample and batched paths stay bit-identical to each other.
func (a Activation) applyBatch(dst, src []float64) {
	switch a {
	case Identity:
		copy(dst, src)
	case Tanh:
		tensor.FastTanhInto(dst, src)
	default:
		panic("nn: unknown activation")
	}
}

// Param is a flat view of one parameter tensor and its gradient accumulator.
type Param struct {
	Name string
	W    []float64
	G    []float64
}

// Linear is a fully-connected layer y = W·x + b with an activation.
type Linear struct {
	In, Out int
	Act     Activation

	W  *tensor.Matrix // Out×In
	B  tensor.Vector  // Out
	GW *tensor.Matrix
	GB tensor.Vector

	// forward caches (single-sample; the MLP drives samples sequentially)
	x tensor.Vector // input
	z tensor.Vector // pre-activation
	y tensor.Vector // post-activation

	// batched forward/backward caches, grown on demand (one row per sample).
	// xref is a reference to the last ForwardBatch input: the caller must
	// keep it unchanged until the matching BackwardBatch.
	xref             *tensor.Matrix
	zb, yb, dzb, dxb *tensor.Matrix

	// setGrads makes the batched backward overwrite GW/GB instead of
	// accumulating, so gradient replicas (CloneGradOnly) need no ZeroGrad
	// memclr between minibatches.
	setGrads bool
}

// newLinear allocates a layer with zero weights.
func newLinear(in, out int, act Activation) *Linear {
	return &Linear{
		In: in, Out: out, Act: act,
		W:  tensor.NewMatrix(out, in),
		B:  tensor.NewVector(out),
		GW: tensor.NewMatrix(out, in),
		GB: tensor.NewVector(out),
		x:  tensor.NewVector(in),
		z:  tensor.NewVector(out),
		y:  tensor.NewVector(out),
	}
}

// NewLinear creates a layer with Xavier-style initialization, N(0, 1/in),
// drawn from rng.
func NewLinear(in, out int, act Activation, rng *rand.Rand) *Linear {
	l := newLinear(in, out, act)
	scale := math.Sqrt(1 / float64(in))
	for i := range l.W.Data {
		l.W.Data[i] = rng.NormFloat64() * scale
	}
	return l
}

// Forward computes the layer output for one sample and caches the
// intermediates needed by Backward. The returned slice is owned by the layer
// and overwritten by the next Forward call.
func (l *Linear) Forward(x tensor.Vector) tensor.Vector {
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: Forward input length %d, layer takes %d", len(x), l.In))
	}
	copy(l.x, x)
	tensor.MatVec(l.z, l.W, l.x)
	l.z.Add(l.z, l.B)
	l.Act.applyBatch(l.y, l.z)
	return l.y
}

// Backward accumulates parameter gradients for the last Forward sample and
// returns d(loss)/d(input). dout is d(loss)/d(output).
func (l *Linear) Backward(dout tensor.Vector) tensor.Vector {
	if len(dout) != l.Out {
		panic("nn: Backward gradient length mismatch")
	}
	dz := tensor.NewVector(l.Out)
	for i, g := range dout {
		dz[i] = g * l.Act.deriv(l.y[i])
	}
	l.GW.AddOuter(1, dz, l.x)
	l.GB.Add(l.GB, dz)
	dx := tensor.NewVector(l.In)
	tensor.MatTVec(dx, l.W, dz)
	return dx
}

// ForwardBatch computes the layer output for a batch of samples (one per
// row of X) in a single matrix pass and caches the intermediates needed by
// BackwardBatch. Row i of the result is bit-identical to Forward(X.Row(i)).
// The returned matrix is owned by the layer and overwritten by the next
// ForwardBatch call. The layer keeps a reference to X instead of copying it:
// the caller must not mutate X before the matching BackwardBatch.
func (l *Linear) ForwardBatch(X *tensor.Matrix) *tensor.Matrix {
	if X.Cols != l.In {
		panic(fmt.Sprintf("nn: ForwardBatch input width %d, layer takes %d", X.Cols, l.In))
	}
	n := X.Rows
	l.xref = X
	l.zb = tensor.EnsureShape(l.zb, n, l.Out)
	l.yb = tensor.EnsureShape(l.yb, n, l.Out)
	tensor.MatMulTransB(l.zb, X, l.W, l.B)
	l.Act.applyBatch(l.yb.Data, l.zb.Data)
	return l.yb
}

// BackwardBatch accumulates parameter gradients for the last ForwardBatch
// batch and returns d(loss)/d(input), one row per sample. Gradients are
// accumulated in ascending sample order, so the result is bit-identical to
// calling Backward once per row of dout.
func (l *Linear) BackwardBatch(dout *tensor.Matrix) *tensor.Matrix {
	return l.backwardBatch(dout, true)
}

// backwardBatch is BackwardBatch with an optional input-gradient matmul:
// the first layer of a network has no upstream to feed, so skipping dX
// saves the single largest kernel of its backward pass.
func (l *Linear) backwardBatch(dout *tensor.Matrix, needDX bool) *tensor.Matrix {
	if l.zb == nil || dout.Rows != l.zb.Rows || dout.Cols != l.Out {
		panic("nn: BackwardBatch shape mismatch (ForwardBatch first)")
	}
	n := dout.Rows
	l.dzb = tensor.EnsureShape(l.dzb, n, l.Out)
	if l.setGrads {
		l.GB.Zero()
	}
	// dZ and the bias gradient GB += Σ_rows dZ, in ascending row order.
	if l.Act == Tanh {
		tensor.TanhBackward(l.dzb, dout, l.yb, l.GB)
	} else { // identity: dZ = dout
		copy(l.dzb.Data, dout.Data[:n*l.Out])
		tensor.AddRowSums(l.GB, l.dzb)
	}
	if l.setGrads {
		tensor.MatMulTransA(l.GW, l.dzb, l.xref)
	} else {
		tensor.AddMatMulTransA(l.GW, l.dzb, l.xref) // GW += dZᵀ·X, sample-major
	}
	if !needDX {
		return nil
	}
	l.dxb = tensor.EnsureShape(l.dxb, n, l.In)
	tensor.MatMul(l.dxb, l.dzb, l.W) // dX = dZ·W
	return l.dxb
}

// ZeroGrad clears the accumulated gradients.
func (l *Linear) ZeroGrad() {
	l.GW.Zero()
	l.GB.Zero()
}

// Params returns the layer's parameter views.
func (l *Linear) Params() []Param {
	return []Param{
		{Name: "W", W: l.W.Data, G: l.GW.Data},
		{Name: "b", W: l.B, G: l.GB},
	}
}

// MLP is a multi-layer perceptron: a stack of Linear layers evaluated one
// sample at a time.
type MLP struct {
	Layers []*Linear

	// params holds the Params() views, built with the network and never
	// written after, so goroutines sharing a network (a loaded critic) may
	// all call Params. The views stay valid across in-place weight updates
	// (Step, LoadState).
	params []Param
}

// newMLP builds a network over layers and its parameter views.
func newMLP(layers []*Linear) *MLP {
	m := &MLP{Layers: layers}
	for i, l := range layers {
		for _, p := range l.Params() {
			p.Name = fmt.Sprintf("layer%d.%s", i, p.Name)
			m.params = append(m.params, p)
		}
	}
	m.params = m.params[:len(m.params):len(m.params)]
	return m
}

// NewMLP builds an MLP with the given layer sizes (len ≥ 2) where every
// hidden layer uses hiddenAct and the output layer uses outAct.
func NewMLP(sizes []int, hiddenAct, outAct Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	var layers []*Linear
	for i := 0; i < len(sizes)-1; i++ {
		act := hiddenAct
		if i == len(sizes)-2 {
			act = outAct
		}
		layers = append(layers, NewLinear(sizes[i], sizes[i+1], act, rng))
	}
	return newMLP(layers)
}

// InDim returns the network input dimension.
func (m *MLP) InDim() int { return m.Layers[0].In }

// OutDim returns the network output dimension.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out }

// Forward evaluates the network on one sample. The returned slice is owned
// by the final layer; callers that keep it across calls must Clone it.
func (m *MLP) Forward(x tensor.Vector) tensor.Vector {
	h := x
	for _, l := range m.Layers {
		h = l.Forward(h)
	}
	return h
}

// ForwardBatch evaluates the network on a batch of samples (one per row)
// in one matrix pass per layer. Row i of the result is bit-identical to
// Forward on row i alone. The returned matrix is owned by the final layer.
func (m *MLP) ForwardBatch(X *tensor.Matrix) *tensor.Matrix {
	h := X
	for _, l := range m.Layers {
		h = l.ForwardBatch(h)
	}
	return h
}

// BackwardBatch backpropagates per-sample output gradients (one per row)
// for the last ForwardBatch batch, accumulating parameter gradients in
// ascending sample order, and returns d(loss)/d(input) per row.
func (m *MLP) BackwardBatch(dout *tensor.Matrix) *tensor.Matrix {
	g := dout
	for i := len(m.Layers) - 1; i >= 0; i-- {
		g = m.Layers[i].BackwardBatch(g)
	}
	return g
}

// BackwardBatchParams is BackwardBatch without the layer-0 input-gradient
// matmul, for training callers that only need parameter gradients. The
// parameter gradients it produces are bit-identical to BackwardBatch's.
func (m *MLP) BackwardBatchParams(dout *tensor.Matrix) {
	g := dout
	for i := len(m.Layers) - 1; i >= 0; i-- {
		g = m.Layers[i].backwardBatch(g, i > 0)
	}
}

// Backward backpropagates d(loss)/d(output) for the last Forward sample,
// accumulating parameter gradients, and returns d(loss)/d(input).
func (m *MLP) Backward(dout tensor.Vector) tensor.Vector {
	g := dout
	for i := len(m.Layers) - 1; i >= 0; i-- {
		g = m.Layers[i].Backward(g)
	}
	return g
}

// ZeroGrad clears the accumulated gradients of every layer.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
}

// Params returns all parameter views, layer by layer. The slice is built
// with the network: the views alias the live weight and gradient buffers, so
// repeated calls in a training loop allocate nothing, and a call writes
// nothing. It is returned with len == cap so a caller appending its own
// entries (e.g. a policy's LogStd) always copies.
func (m *MLP) Params() []Param { return m.params }

// CopyParamsFrom copies all parameter values from src (same architecture).
func (m *MLP) CopyParamsFrom(src *MLP) {
	dst, s := m.Params(), src.Params()
	if len(dst) != len(s) {
		panic("nn: CopyParamsFrom architecture mismatch")
	}
	for i := range dst {
		if len(dst[i].W) != len(s[i].W) {
			panic("nn: CopyParamsFrom shape mismatch")
		}
		copy(dst[i].W, s[i].W)
	}
}

// Clone returns a deep copy of the network (parameters only; gradient
// accumulators start at zero).
func (m *MLP) Clone() *MLP {
	var layers []*Linear
	for _, l := range m.Layers {
		nl := newLinear(l.In, l.Out, l.Act)
		copy(nl.W.Data, l.W.Data)
		copy(nl.B, l.B)
		layers = append(layers, nl)
	}
	return newMLP(layers)
}
