package nn

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// apply evaluates the activation on one value through applyBatch, the
// path Forward and ForwardBatch take.
func (a Activation) apply(x float64) float64 {
	var y [1]float64
	a.applyBatch(y[:], []float64{x})
	return y[0]
}

func TestActivationValues(t *testing.T) {
	cases := []struct {
		a    Activation
		x    float64
		want float64
	}{
		{Identity, 2.5, 2.5},
		{Tanh, 0, 0},
		{ReLU, -1, 0},
		{ReLU, 3, 3},
		{Sigmoid, 0, 0.5},
		{Softplus, 0, math.Log(2)},
		{Softplus, 40, 40}, // overflow guard path
	}
	for _, c := range cases {
		got := c.a.apply(c.x)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v(%v) = %v, want %v", c.a, c.x, got, c.want)
		}
	}
}

func TestActivationDerivMatchesNumeric(t *testing.T) {
	h := 1e-6
	for _, a := range []Activation{Identity, Tanh, ReLU, Sigmoid, Softplus} {
		for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
			y := a.apply(x)
			got := a.deriv(x, y)
			num := (a.apply(x+h) - a.apply(x-h)) / (2 * h)
			if math.Abs(got-num) > 1e-5 {
				t.Errorf("%v'(%v) = %v, numeric %v", a, x, got, num)
			}
		}
	}
}

func TestActivationString(t *testing.T) {
	if Tanh.String() != "tanh" || Activation(99).String() == "" {
		t.Fatal("String() broken")
	}
}

func TestLinearForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(2, 2, Identity, rng)
	l.W.Set(0, 0, 1)
	l.W.Set(0, 1, 2)
	l.W.Set(1, 0, 3)
	l.W.Set(1, 1, 4)
	l.B[0], l.B[1] = 10, 20
	out := l.Forward(tensor.Vector{1, 1})
	if out[0] != 13 || out[1] != 27 {
		t.Fatalf("Forward = %v", out)
	}
}

// TestForwardInputLengthPanics pins Forward's shape check: an input of the
// wrong length must panic naming both lengths, not be truncated or padded
// with the previous call's values.
func TestForwardInputLengthPanics(t *testing.T) {
	m := NewMLP([]int{4, 8, 3}, Tanh, Identity, rand.New(rand.NewSource(3)))
	m.Forward(tensor.Vector{1, 2, 3, 4})
	for _, x := range []tensor.Vector{{1, 2}, {1, 2, 3, 4, 5, 6}, nil} {
		func() {
			defer func() {
				want := fmt.Sprintf("nn: Forward input length %d, layer takes 4", len(x))
				if r := recover(); r != want {
					t.Errorf("Forward(%v) panicked with %v, want %q", x, r, want)
				}
			}()
			m.Forward(x)
		}()
	}
}

func TestMLPGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, act := range []Activation{Tanh, Sigmoid, Softplus} {
		m := NewMLP([]int{4, 8, 3}, act, Identity, rng)
		x := tensor.NewVector(4)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// Loss: 0.5·Σ(out-target)²
		target := tensor.Vector{0.3, -0.7, 1.2}
		loss := func(out, dout tensor.Vector) float64 {
			var l float64
			for i := range out {
				d := out[i] - target[i]
				l += 0.5 * d * d
				dout[i] = d
			}
			return l
		}
		worst, err := GradCheck(m, x, loss, 1e-5)
		if err != nil {
			t.Fatalf("%v: %v", act, err)
		}
		if worst > 1e-4 {
			t.Errorf("%v: gradcheck worst relative error %v", act, worst)
		}
	}
}

func TestMLPGradCheckReLU(t *testing.T) {
	// ReLU kinks can upset finite differences; use inputs away from zero.
	rng := rand.New(rand.NewSource(11))
	m := NewMLP([]int{3, 6, 2}, ReLU, Identity, rng)
	x := tensor.Vector{0.9, -1.3, 0.6}
	loss := func(out, dout tensor.Vector) float64 {
		var l float64
		for i := range out {
			l += out[i]
			dout[i] = 1
		}
		return l
	}
	worst, err := GradCheck(m, x, loss, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-3 {
		t.Errorf("gradcheck worst relative error %v", worst)
	}
}

func TestBackwardAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{2, 2}, Identity, Identity, rng)
	x := tensor.Vector{1, 2}
	dout := tensor.Vector{1, 1}
	m.ZeroGrad()
	m.Forward(x)
	m.Backward(dout)
	g1 := append([]float64(nil), m.Layers[0].GW.Data...)
	m.Forward(x)
	m.Backward(dout)
	for i, g := range m.Layers[0].GW.Data {
		if math.Abs(g-2*g1[i]) > 1e-12 {
			t.Fatalf("gradients should accumulate: %v vs 2*%v", g, g1[i])
		}
	}
	m.ZeroGrad()
	for _, g := range m.Layers[0].GW.Data {
		if g != 0 {
			t.Fatal("ZeroGrad did not clear")
		}
	}
}

func TestMLPDims(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP([]int{7, 16, 16, 4}, Tanh, Identity, rng)
	if m.InDim() != 7 || m.OutDim() != 4 {
		t.Fatalf("dims = %d,%d", m.InDim(), m.OutDim())
	}
	want, n := 7*16+16+16*16+16+16*4+4, 0
	for _, p := range m.Params() {
		n += len(p.W)
	}
	if n != want {
		t.Fatalf("%d parameters, want %d", n, want)
	}
	if len(m.Params()) != 6 {
		t.Fatalf("Params count = %d", len(m.Params()))
	}
}

func TestNewMLPTooFewSizesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP([]int{3}, Tanh, Identity, rand.New(rand.NewSource(1)))
}

func TestCloneAndCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP([]int{3, 5, 2}, Tanh, Identity, rng)
	c := m.Clone()
	x := tensor.Vector{0.1, -0.2, 0.3}
	a := m.Forward(x).Clone()
	b := c.Forward(x).Clone()
	if !tensor.Equal(a, b) {
		t.Fatal("clone forward differs")
	}
	// Mutate the clone; original unaffected.
	c.Layers[0].W.Data[0] += 1
	b2 := c.Forward(x).Clone()
	if tensor.Equal(a, b2) {
		t.Fatal("clone shares storage with original")
	}
	// CopyParamsFrom restores equality.
	c.CopyParamsFrom(m)
	b3 := c.Forward(x).Clone()
	if !tensor.Equal(a, b3) {
		t.Fatal("CopyParamsFrom did not restore")
	}
}

// fromJSON decodes a network the way a file's network is loaded: its
// snapshot through encoding/json, then MLPFromState.
func fromJSON(data []byte) (*MLP, error) {
	var st MLPState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	return MLPFromState(st)
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewMLP([]int{4, 6, 2}, ReLU, Sigmoid, rng)
	data, err := json.Marshal(m.State())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := fromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{0.5, -1, 2, 0.25}
	if !tensor.Equal(m.Forward(x).Clone(), m2.Forward(x).Clone()) {
		t.Fatal("round-trip changed forward pass")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	for _, data := range []string{"not json", "{}", `{"sizes": [3]}`} {
		if _, err := fromJSON([]byte(data)); err == nil {
			t.Fatalf("%s: expected decode error", data)
		}
	}
}

// TestUnmarshalMalformed feeds MLPFromState well-formed snapshots of
// malformed networks: each case must be an error naming the layer, not a
// panic in decoding or in a later Forward.
func TestUnmarshalMalformed(t *testing.T) {
	tanh, identity := int(Tanh), int(Identity)
	cases := []struct {
		name, want string
		st         MLPState
	}{
		{"no weights", "layer 0", MLPState{Sizes: []int{2, 3}, Acts: []int{tanh}}},
		{"in·out wraps to zero", "layer 0", MLPState{Sizes: []int{1 << (bits.UintSize - 4), 16}, Acts: []int{tanh}, W: [][]float64{{}}, B: [][]float64{make([]float64, 16)}}},
		{"unknown activation", "layer 0", MLPState{Sizes: []int{1, 1}, Acts: []int{99}, W: [][]float64{{1}}, B: [][]float64{{0}}}},
		{"zero width", "layer 0", MLPState{Sizes: []int{0, 3}, Acts: []int{tanh}, W: [][]float64{{}}, B: [][]float64{make([]float64, 3)}}},
		{"second layer short", "layer 1", MLPState{Sizes: []int{1, 2, 1}, Acts: []int{tanh, identity}, W: [][]float64{{1, 1}, {1}}, B: [][]float64{{0, 0}, {0}}}},
		{"extra weights", "inconsistent", MLPState{Sizes: []int{1, 1}, Acts: []int{tanh}, W: [][]float64{{1}, {1}}, B: [][]float64{{0}}}},
	}
	for _, c := range cases {
		data, err := json.Marshal(c.st)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fromJSON(data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// TestUnmarshalRejectsNonFinite: a network snapshot holding a NaN or ±Inf
// weight or bias is an error naming the layer and the element. A NaN
// weight would otherwise reach the first decision as a NaN action. JSON
// cannot carry a non-finite number, so the snapshot goes to MLPFromState
// directly.
func TestUnmarshalRejectsNonFinite(t *testing.T) {
	for name, c := range map[string]struct {
		want string
		mut  func(*MLP)
	}{
		"first weight NaN":   {"layer 0 weight 0 is NaN", func(m *MLP) { m.Layers[0].W.Data[0] = math.NaN() }},
		"hidden bias +Inf":   {"layer 1 bias 2 is +Inf", func(m *MLP) { m.Layers[1].B[2] = math.Inf(1) }},
		"output weight -Inf": {"layer 2 weight 5 is -Inf", func(m *MLP) { m.Layers[2].W.Data[5] = math.Inf(-1) }},
	} {
		m := NewMLP([]int{3, 4, 4, 2}, Tanh, Identity, rand.New(rand.NewSource(1)))
		c.mut(m)
		if _, err := MLPFromState(m.State()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", name, err, c.want)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := make([]float64, 4)
	g := make([]float64, 4)
	p := []Param{{Name: "w", W: w, G: g}}
	opt := NewAdam(0.05)
	for step := 0; step < 2000; step++ {
		for i := range w {
			g[i] = 2 * (w[i] - float64(i))
		}
		opt.Step(p)
	}
	for i := range w {
		if math.Abs(w[i]-float64(i)) > 1e-2 {
			t.Fatalf("Adam failed to converge: w=%v", w)
		}
	}
}

func TestAdamFirstStepBiasCorrection(t *testing.T) {
	// With bias correction the very first Adam step has magnitude ≈ lr,
	// regardless of gradient scale.
	for _, scale := range []float64{1e-3, 1, 1e3} {
		w := []float64{0}
		g := []float64{scale}
		opt := NewAdam(0.1)
		opt.Step([]Param{{W: w, G: g}})
		if math.Abs(math.Abs(w[0])-0.1) > 1e-6 {
			t.Fatalf("first step = %v for grad scale %v", w[0], scale)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	g := []float64{3, 4} // norm 5
	p := []Param{{W: make([]float64, 2), G: g}}
	norm := ClipGradNorm(p, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v", norm)
	}
	var after float64
	for _, x := range g {
		after += x * x
	}
	if math.Abs(math.Sqrt(after)-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v", math.Sqrt(after))
	}
	// Below the cap: unchanged.
	g2 := []float64{0.1, 0.1}
	ClipGradNorm([]Param{{W: make([]float64, 2), G: g2}}, 10)
	if g2[0] != 0.1 {
		t.Fatal("clip modified small gradient")
	}
	// Disabled clipping leaves gradients alone.
	g3 := []float64{30, 40}
	ClipGradNorm([]Param{{W: make([]float64, 2), G: g3}}, 0)
	if g3[0] != 30 {
		t.Fatal("maxNorm<=0 should not clip")
	}
}

func TestForwardDeterministicProperty(t *testing.T) {
	// Same input ⇒ same output (no hidden state leaks between calls).
	rng := rand.New(rand.NewSource(33))
	m := NewMLP([]int{5, 8, 3}, Tanh, Identity, rng)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := tensor.NewVector(5)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		a := m.Forward(x).Clone()
		// Interleave an unrelated forward pass.
		m.Forward(tensor.NewVector(5))
		b := m.Forward(x).Clone()
		return tensor.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestXavierInitScale(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	l := NewLinear(1000, 10, Tanh, rng)
	var sq float64
	for _, w := range l.W.Data {
		sq += w * w
	}
	std := math.Sqrt(sq / float64(len(l.W.Data)))
	want := math.Sqrt(1.0 / 1000)
	if std < want*0.8 || std > want*1.2 {
		t.Fatalf("init std = %v, want ≈ %v", std, want)
	}
	for _, b := range l.B {
		if b != 0 {
			t.Fatal("bias should start at zero")
		}
	}
}
