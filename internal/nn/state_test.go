package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

func stateTestNet(seed int64) *MLP {
	return NewMLP([]int{3, 4, 2}, Tanh, Identity, rand.New(rand.NewSource(seed)))
}

func TestMLPStateRoundTrip(t *testing.T) {
	src := stateTestNet(1)
	st := src.State()
	// Through JSON, as the checkpoint file does.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back MLPState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	dst := stateTestNet(2) // different weights, same architecture
	if err := dst.LoadState(back); err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{0.3, -0.7, 1.1}
	got := dst.Forward(x)
	want := src.Forward(x)
	if !reflect.DeepEqual(append(tensor.Vector(nil), got...), append(tensor.Vector(nil), want...)) {
		t.Fatalf("restored forward %v, want %v", got, want)
	}
}

func TestMLPLoadStateInPlace(t *testing.T) {
	m := stateTestNet(3)
	ptrs := make([]*float64, 0, len(m.Layers))
	for _, l := range m.Layers {
		ptrs = append(ptrs, &l.W.Data[0])
	}
	if err := m.LoadState(stateTestNet(4).State()); err != nil {
		t.Fatal(err)
	}
	for i, l := range m.Layers {
		if &l.W.Data[0] != ptrs[i] {
			t.Fatalf("layer %d weights reallocated by LoadState", i)
		}
	}
}

func TestMLPLoadStateRejectsMismatch(t *testing.T) {
	m := stateTestNet(1)
	cases := []MLPState{
		NewMLP([]int{3, 4, 4, 2}, Tanh, Identity, rand.New(rand.NewSource(1))).State(),  // depth
		NewMLP([]int{3, 5, 2}, Tanh, Identity, rand.New(rand.NewSource(1))).State(),     // width
		NewMLP([]int{3, 4, 2}, Identity, Identity, rand.New(rand.NewSource(1))).State(), // activation
	}
	for i, st := range cases {
		if err := m.LoadState(st); err == nil {
			t.Fatalf("case %d: mismatched checkpoint accepted", i)
		}
	}
}

// A restored optimizer must continue the step sequence bit-identically: run
// A for 2k steps; run B for k steps, checkpoint net+optimizer, restore into
// fresh objects, run k more — final weights must match A exactly.
func TestAdamStateRoundTripContinuesIdentically(t *testing.T) {
	step := func(m *MLP, o *Adam, i int) {
		x := tensor.Vector{float64(i%5) * 0.2, -0.4, 0.9}
		dy := tensor.Vector{0.1, -0.2}
		m.ZeroGrad()
		m.Forward(x)
		m.Backward(dy)
		o.Step(m.Params())
	}

	ref := stateTestNet(7)
	refOpt := NewAdam(1e-2)
	for i := 0; i < 20; i++ {
		step(ref, refOpt, i)
	}

	half := stateTestNet(7)
	halfOpt := NewAdam(1e-2)
	for i := 0; i < 10; i++ {
		step(half, halfOpt, i)
	}
	netSt := half.State()
	optSt := halfOpt.State(half.Params())
	raw, err := json.Marshal(optSt)
	if err != nil {
		t.Fatal(err)
	}
	var backOpt AdamState
	if err := json.Unmarshal(raw, &backOpt); err != nil {
		t.Fatal(err)
	}

	resumed := stateTestNet(99)
	resumedOpt := NewAdam(1e-2)
	if err := resumed.LoadState(netSt); err != nil {
		t.Fatal(err)
	}
	if err := resumedOpt.LoadState(resumed.Params(), backOpt); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		step(resumed, resumedOpt, i)
	}

	x := tensor.Vector{0.5, 0.5, 0.5}
	got := append(tensor.Vector(nil), resumed.Forward(x)...)
	want := append(tensor.Vector(nil), ref.Forward(x)...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed training diverged: %v vs %v", got, want)
	}
}

func TestAdamStateFreshOptimizerSnapshotsZeros(t *testing.T) {
	m := stateTestNet(1)
	o := NewAdam(1e-3)
	st := o.State(m.Params())
	if st.T != 0 {
		t.Fatalf("fresh optimizer step count %d", st.T)
	}
	for i, row := range st.M {
		for _, v := range row {
			if v != 0 {
				t.Fatalf("row %d: fresh first moment %v nonzero", i, v)
			}
		}
	}
}

func TestAdamLoadStateRejectsMismatch(t *testing.T) {
	m := stateTestNet(1)
	o := NewAdam(1e-3)
	st := o.State(m.Params())

	bad := st
	bad.M = bad.M[:len(bad.M)-1]
	if err := o.LoadState(m.Params(), bad); err == nil {
		t.Fatal("row-count mismatch accepted")
	}

	bad = st
	bad.M = append([][]float64(nil), st.M...)
	bad.M[0] = bad.M[0][:1]
	if err := o.LoadState(m.Params(), bad); err == nil {
		t.Fatal("row-length mismatch accepted")
	}

	bad = st
	bad.T = -1
	if err := o.LoadState(m.Params(), bad); err == nil {
		t.Fatal("negative step count accepted")
	}
}

// TestMLPLoadStateRejectsNonFinite: a snapshot holding a NaN or ±Inf weight
// or bias is refused before anything is written.
func TestMLPLoadStateRejectsNonFinite(t *testing.T) {
	for name, mut := range map[string]func(*MLPState){
		"weight NaN":  func(st *MLPState) { st.W[1][2] = math.NaN() },
		"weight +Inf": func(st *MLPState) { st.W[0][0] = math.Inf(1) },
		"bias -Inf":   func(st *MLPState) { st.B[0][3] = math.Inf(-1) },
	} {
		st := stateTestNet(1).State()
		mut(&st)
		dst := stateTestNet(2)
		want := dst.State()
		if err := dst.LoadState(st); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !reflect.DeepEqual(dst.State(), want) {
			t.Errorf("%s: rejected snapshot changed the network", name)
		}
	}
}

// TestAdamLoadStateRejectsBadMoments: a non-finite first moment, or a
// second moment that is negative, NaN or +Inf, is refused before anything
// is written. A negative second moment would make the next step's square
// root NaN.
func TestAdamLoadStateRejectsBadMoments(t *testing.T) {
	m := stateTestNet(1)
	for name, mut := range map[string]func(*AdamState){
		"m NaN":  func(st *AdamState) { st.M[0][1] = math.NaN() },
		"m -Inf": func(st *AdamState) { st.M[3][0] = math.Inf(-1) },
		"v -1":   func(st *AdamState) { st.V[2][0] = -1 },
		"v NaN":  func(st *AdamState) { st.V[1][1] = math.NaN() },
		"v +Inf": func(st *AdamState) { st.V[0][0] = math.Inf(1) },
	} {
		o := NewAdam(1e-3)
		st := o.State(m.Params())
		st.T = 4
		mut(&st)
		if err := o.LoadState(m.Params(), st); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if o.t != 0 || len(o.m) != 0 || len(o.v) != 0 {
			t.Errorf("%s: rejected snapshot changed the optimizer", name)
		}
	}
}
