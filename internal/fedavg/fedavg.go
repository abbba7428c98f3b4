// Package fedavg implements the learning half of federated learning: real
// model training with FedAvg aggregation over decentralized datasets. The
// timing/energy simulator (internal/fl) decides *when* rounds complete and
// what they cost; this package decides *what* is learned, exercising the
// paper's loss functions (7)–(8) and the training-quality constraint (10)
// F(ω) < ε that determines the total number of iterations K.
package fedavg

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Model is a trainable predictor with a flat parameter view, the unit of
// exchange between clients and the parameter server.
type Model interface {
	// Loss returns the mean loss over the dataset (eq. 7).
	Loss(X *tensor.Matrix, y []float64) float64
	// TrainEpochs runs `epochs` passes of SGD over the dataset (the τ local
	// training passes of the paper).
	TrainEpochs(X *tensor.Matrix, y []float64, epochs int, lr float64, rng *rand.Rand)
	// Params returns a copy of the flat parameter vector ω.
	Params() []float64
	// SetParams overwrites the parameters from a flat vector.
	SetParams(p []float64) error
	// Clone returns an independent copy.
	Clone() Model
}

// LogisticModel is l2-regularized logistic regression — the convex model
// federated-optimization papers evaluate on.
type LogisticModel struct {
	// W holds the weights; the last element is the bias.
	W tensor.Vector
	// L2 is the regularization strength.
	L2 float64
}

// NewLogisticModel creates a zero-initialized model for `dim` features.
func NewLogisticModel(dim int, l2 float64) *LogisticModel {
	if dim <= 0 {
		panic(fmt.Sprintf("fedavg: dimension %d must be positive", dim))
	}
	if l2 < 0 {
		panic(fmt.Sprintf("fedavg: negative regularization %v", l2))
	}
	return &LogisticModel{W: tensor.NewVector(dim + 1), L2: l2}
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Predict returns P(y=1|x).
func (m *LogisticModel) Predict(x tensor.Vector) float64 {
	dim := len(m.W) - 1
	if len(x) != dim {
		panic(fmt.Sprintf("fedavg: feature dim %d, want %d", len(x), dim))
	}
	z := m.W[dim]
	for i, xi := range x {
		z += m.W[i] * xi
	}
	return sigmoid(z)
}

// Loss implements Model with the binary cross-entropy plus l2 penalty.
func (m *LogisticModel) Loss(X *tensor.Matrix, y []float64) float64 {
	if X.Rows != len(y) {
		panic("fedavg: X/y length mismatch")
	}
	if X.Rows == 0 {
		return 0
	}
	var loss float64
	for r := 0; r < X.Rows; r++ {
		p := m.Predict(X.Row(r))
		p = math.Min(math.Max(p, 1e-12), 1-1e-12)
		if y[r] > 0.5 {
			loss += -math.Log(p)
		} else {
			loss += -math.Log(1 - p)
		}
	}
	loss /= float64(X.Rows)
	var reg float64
	for _, w := range m.W[:len(m.W)-1] {
		reg += w * w
	}
	return loss + 0.5*m.L2*reg
}

// TrainEpochs implements Model with shuffled per-sample SGD.
func (m *LogisticModel) TrainEpochs(X *tensor.Matrix, y []float64, epochs int, lr float64, rng *rand.Rand) {
	if X.Rows == 0 || epochs <= 0 {
		return
	}
	dim := len(m.W) - 1
	order := make([]int, X.Rows)
	for i := range order {
		order[i] = i
	}
	for e := 0; e < epochs; e++ {
		if rng != nil {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, r := range order {
			x := X.Row(r)
			p := m.Predict(x)
			g := p - y[r] // d(BCE)/dz
			for i := 0; i < dim; i++ {
				m.W[i] -= lr * (g*x[i] + m.L2*m.W[i])
			}
			m.W[dim] -= lr * g
		}
	}
}

// Params implements Model.
func (m *LogisticModel) Params() []float64 {
	return append([]float64(nil), m.W...)
}

// SetParams implements Model.
func (m *LogisticModel) SetParams(p []float64) error {
	if len(p) != len(m.W) {
		return fmt.Errorf("fedavg: parameter length %d, want %d", len(p), len(m.W))
	}
	copy(m.W, p)
	return nil
}

// Clone implements Model.
func (m *LogisticModel) Clone() Model {
	return &LogisticModel{W: m.W.Clone(), L2: m.L2}
}

// Accuracy returns the fraction of correct 0/1 predictions.
func (m *LogisticModel) Accuracy(X *tensor.Matrix, y []float64) float64 {
	if X.Rows == 0 {
		return 0
	}
	correct := 0
	for r := 0; r < X.Rows; r++ {
		pred := 0.0
		if m.Predict(X.Row(r)) >= 0.5 {
			pred = 1
		}
		if pred == y[r] {
			correct++
		}
	}
	return float64(correct) / float64(X.Rows)
}

// Client is one device's local dataset D_i.
type Client struct {
	// X holds one sample per row.
	X *tensor.Matrix
	// Y holds the 0/1 labels.
	Y []float64
}

// Size returns |D_i|.
func (c *Client) Size() int { return c.X.Rows }

// Federation is the parameter server plus its clients.
type Federation struct {
	// Clients holds the devices' local data.
	Clients []*Client
	// Global is the current global model ω.
	Global Model
	// Tau is τ, local epochs per round.
	Tau int
	// LR is the clients' SGD learning rate.
	LR float64

	rng *rand.Rand
}

// NewFederation validates and assembles a federation.
func NewFederation(clients []*Client, global Model, tau int, lr float64, seed int64) (*Federation, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("fedavg: no clients")
	}
	for i, c := range clients {
		if c == nil || c.X == nil {
			return nil, fmt.Errorf("fedavg: client %d is nil", i)
		}
		if c.X.Rows != len(c.Y) {
			return nil, fmt.Errorf("fedavg: client %d has %d samples but %d labels", i, c.X.Rows, len(c.Y))
		}
		if c.X.Rows == 0 {
			return nil, fmt.Errorf("fedavg: client %d has no data", i)
		}
	}
	if global == nil {
		return nil, fmt.Errorf("fedavg: nil global model")
	}
	if tau <= 0 {
		return nil, fmt.Errorf("fedavg: τ = %d must be positive", tau)
	}
	if lr <= 0 {
		return nil, fmt.Errorf("fedavg: learning rate %v must be positive", lr)
	}
	return &Federation{Clients: clients, Global: global, Tau: tau, LR: lr, rng: rand.New(rand.NewSource(seed))}, nil
}

// GlobalLoss computes eq. (8): the D_n-weighted average of client losses.
func (f *Federation) GlobalLoss() float64 {
	var num, den float64
	for _, c := range f.Clients {
		num += float64(c.Size()) * f.Global.Loss(c.X, c.Y)
		den += float64(c.Size())
	}
	return num / den
}

// Round runs one synchronous FedAvg round: every client trains the current
// global model for τ epochs locally, and the server replaces ω with the
// D_n-weighted average of the local models. It returns the post-round
// global loss.
func (f *Federation) Round() float64 {
	base := f.Global.Params()
	agg := make([]float64, len(base))
	var total float64
	for _, c := range f.Clients {
		local := f.Global.Clone()
		local.TrainEpochs(c.X, c.Y, f.Tau, f.LR, f.rng)
		w := float64(c.Size())
		for i, p := range local.Params() {
			agg[i] += w * p
		}
		total += w
	}
	for i := range agg {
		agg[i] /= total
	}
	if err := f.Global.SetParams(agg); err != nil {
		// All clones share the global architecture; length mismatch is a bug.
		panic(err)
	}
	return f.GlobalLoss()
}
