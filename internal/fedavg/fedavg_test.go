package fedavg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

func smallClients(t *testing.T, n int, seed int64) []*Client {
	t.Helper()
	cfg := DefaultSyntheticConfig(n)
	cfg.SamplesMin, cfg.SamplesMax = 40, 80
	clients, _, err := GenerateSynthetic(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return clients
}

func TestSigmoidStable(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Fatalf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Fatalf("sigmoid(-1000) = %v", s)
	}
	testutil.AssertWithin(t, "sigmoid(0)", sigmoid(0), 0.5, 1e-15)
}

func TestLogisticModelBasics(t *testing.T) {
	m := NewLogisticModel(2, 0)
	// Zero weights ⇒ p = 0.5 everywhere, BCE = log 2.
	X := tensor.FromRows([][]float64{{1, 2}, {-1, 0}})
	y := []float64{1, 0}
	testutil.AssertWithin(t, "zero-model loss", m.Loss(X, y), math.Log(2), 1e-12)
	// Known weights.
	if err := m.SetParams([]float64{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	testutil.AssertWithin(t, "predict", m.Predict(tensor.Vector{2, 0}), sigmoid(2), 1e-12)
	if err := m.SetParams([]float64{1}); err == nil {
		t.Fatal("bad param length accepted")
	}
}

func TestLogisticModelPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"dim":    func() { NewLogisticModel(0, 0) },
		"l2":     func() { NewLogisticModel(2, -1) },
		"xy len": func() { NewLogisticModel(1, 0).Loss(tensor.NewMatrix(2, 1), []float64{1}) },
		"x dim":  func() { NewLogisticModel(2, 0).Predict(tensor.Vector{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSGDReducesLossOnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Separable: y = 1 iff x0 > 0.
	n := 200
	X := tensor.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		X.Set(i, 0, v)
		if v > 0 {
			y[i] = 1
		}
	}
	m := NewLogisticModel(1, 0)
	before := m.Loss(X, y)
	m.TrainEpochs(X, y, 20, 0.1, rng)
	after := m.Loss(X, y)
	if after >= before {
		t.Fatalf("loss did not decrease: %v → %v", before, after)
	}
	if acc := m.Accuracy(X, y); acc < 0.95 {
		t.Fatalf("accuracy %v too low on separable data", acc)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewLogisticModel(2, 0.01)
	if err := m.SetParams([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if err := c.SetParams([]float64{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if m.W[0] != 1 {
		t.Fatal("Clone shares storage")
	}
	lm := c.(*LogisticModel)
	if lm.L2 != 0.01 {
		t.Fatal("Clone lost regularization")
	}
}

func TestGenerateSyntheticShapes(t *testing.T) {
	cfg := DefaultSyntheticConfig(4)
	clients, truth, err := GenerateSynthetic(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(clients) != 4 || len(truth) != cfg.Dim+1 {
		t.Fatalf("shapes: %d clients, %d truth", len(clients), len(truth))
	}
	for i, c := range clients {
		if c.Size() < cfg.SamplesMin || c.Size() > cfg.SamplesMax {
			t.Fatalf("client %d size %d outside range", i, c.Size())
		}
		for _, label := range c.Y {
			if label != 0 && label != 1 {
				t.Fatalf("non-binary label %v", label)
			}
		}
	}
	// Determinism.
	again, _, _ := GenerateSynthetic(cfg, 7)
	if again[0].X.At(0, 0) != clients[0].X.At(0, 0) {
		t.Fatal("same seed must reproduce data")
	}
}

func TestSyntheticConfigValidate(t *testing.T) {
	muts := map[string]func(*SyntheticConfig){
		"clients": func(c *SyntheticConfig) { c.Clients = 0 },
		"dim":     func(c *SyntheticConfig) { c.Dim = 0 },
		"samples": func(c *SyntheticConfig) { c.SamplesMin = 0 },
		"range":   func(c *SyntheticConfig) { c.SamplesMax = c.SamplesMin - 1 },
		"noniid":  func(c *SyntheticConfig) { c.NonIID = 1.5 },
		"noise":   func(c *SyntheticConfig) { c.LabelNoise = 0.5 },
	}
	for name, mut := range muts {
		c := DefaultSyntheticConfig(3)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNewFederationValidation(t *testing.T) {
	clients := smallClients(t, 2, 3)
	model := NewLogisticModel(10, 0)
	if _, err := NewFederation(clients, model, 2, 0.05, 1); err != nil {
		t.Fatalf("valid federation rejected: %v", err)
	}
	if _, err := NewFederation(nil, model, 2, 0.05, 1); err == nil {
		t.Fatal("no clients accepted")
	}
	if _, err := NewFederation(clients, nil, 2, 0.05, 1); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewFederation(clients, model, 0, 0.05, 1); err == nil {
		t.Fatal("zero tau accepted")
	}
	if _, err := NewFederation(clients, model, 2, 0, 1); err == nil {
		t.Fatal("zero lr accepted")
	}
	bad := []*Client{{X: tensor.NewMatrix(2, 3), Y: []float64{1}}}
	if _, err := NewFederation(bad, model, 1, 0.1, 1); err == nil {
		t.Fatal("mismatched client accepted")
	}
	empty := []*Client{{X: tensor.NewMatrix(0, 3), Y: nil}}
	if _, err := NewFederation(empty, model, 1, 0.1, 1); err == nil {
		t.Fatal("empty client accepted")
	}
}

func TestGlobalLossWeightedByDataSize(t *testing.T) {
	// Eq. (8): F = Σ D_n F_n / Σ D_n. Build two clients with known,
	// different local losses via hand-set labels against a zero model
	// (loss log 2 each) — weighting must reduce to log 2 — then perturb.
	m := NewLogisticModel(1, 0)
	big := &Client{X: tensor.NewMatrix(30, 1), Y: make([]float64, 30)}
	small := &Client{X: tensor.NewMatrix(10, 1), Y: make([]float64, 10)}
	f, err := NewFederation([]*Client{big, small}, m, 1, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	testutil.AssertWithin(t, "uniform loss", f.GlobalLoss(), math.Log(2), 1e-12)
	// With weights set so big-client loss ≠ small-client loss, check the
	// 3:1 weighting explicitly.
	if err := m.SetParams([]float64{5, 0}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 30; r++ {
		big.X.Set(r, 0, 1) // p≈1, label 0 ⇒ large loss
	}
	for r := 0; r < 10; r++ {
		small.X.Set(r, 0, -1) // p≈0, label 0 ⇒ small loss
	}
	lb := m.Loss(big.X, big.Y)
	ls := m.Loss(small.X, small.Y)
	want := (30*lb + 10*ls) / 40
	testutil.AssertWithin(t, "weighted loss", f.GlobalLoss(), want, 1e-12)
}

func TestAggregationIdentityProperty(t *testing.T) {
	// If every client's update is a no-op (0 epochs impossible — use lr so
	// small the params barely move), aggregation of identical models must
	// return the same parameters.
	clients := smallClients(t, 3, 9)
	m := NewLogisticModel(10, 0)
	if err := m.SetParams(randParams(11, 5)); err != nil {
		t.Fatal(err)
	}
	f, err := NewFederation(clients, m, 1, 1e-12, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Params()
	f.Round()
	after := f.Global.Params()
	for i := range before {
		if !testutil.Within(after[i], before[i], 1e-6) {
			t.Fatalf("aggregation drifted: %v → %v", before[i], after[i])
		}
	}
}

func randParams(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func TestFedAvgConverges(t *testing.T) {
	clients := smallClients(t, 5, 11)
	f, err := NewFederation(clients, NewLogisticModel(10, 1e-4), 2, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	initial := f.GlobalLoss()
	eps := initial * 0.5
	loss := initial
	rounds := 0
	for ; rounds < 60 && loss >= eps; rounds++ {
		loss = f.Round()
	}
	if loss >= eps {
		t.Fatalf("did not reach ε: final loss %v (initial %v) after %d rounds", loss, initial, rounds)
	}
	if got := f.GlobalLoss(); got != loss {
		t.Fatalf("Round returned %v, GlobalLoss after it %v", loss, got)
	}
}

func TestWeightedAverageProperty(t *testing.T) {
	// FedAvg of models with constant parameter vectors equals the
	// size-weighted mean of those constants.
	f := func(a, b uint8) bool {
		va, vb := float64(a), float64(b)
		c1 := &Client{X: tensor.NewMatrix(3, 1), Y: []float64{0, 0, 0}}
		c2 := &Client{X: tensor.NewMatrix(1, 1), Y: []float64{0}}
		m := &stubModel{}
		fed, err := NewFederation([]*Client{c1, c2}, m, 1, 0.1, 1)
		if err != nil {
			return false
		}
		m.next = []float64{va, vb} // client 0 returns va, client 1 vb
		fed.Round()
		want := (3*va + 1*vb) / 4
		return testutil.Within(fed.Global.Params()[0], want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// stubModel lets tests force the per-client local models to known values:
// the i-th clone's TrainEpochs sets its parameter to next[i].
type stubModel struct {
	val   float64
	next  []float64
	calls int
	root  *stubModel
}

func (s *stubModel) Loss(X *tensor.Matrix, y []float64) float64 { return s.val }
func (s *stubModel) TrainEpochs(X *tensor.Matrix, y []float64, epochs int, lr float64, rng *rand.Rand) {
	root := s.root
	if root == nil {
		root = s
	}
	if root.calls < len(root.next) {
		s.val = root.next[root.calls]
	}
	root.calls++
}
func (s *stubModel) Params() []float64 { return []float64{s.val} }
func (s *stubModel) SetParams(p []float64) error {
	s.val = p[0]
	return nil
}
func (s *stubModel) Clone() Model {
	root := s.root
	if root == nil {
		root = s
	}
	return &stubModel{val: s.val, root: root}
}
