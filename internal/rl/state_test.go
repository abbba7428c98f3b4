package rl

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// A rand.Rand on a CountingSource must produce exactly the stream of one on
// the plain default source — across every consumer method the trainer uses.
func TestCountingSourceMatchesDefaultStream(t *testing.T) {
	a := rand.New(rand.NewSource(42))
	b := rand.New(NewCountingSource(42))
	for i := 0; i < 200; i++ {
		switch i % 5 {
		case 0:
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("Float64 diverged at %d: %v vs %v", i, x, y)
			}
		case 1:
			if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
				t.Fatalf("NormFloat64 diverged at %d: %v vs %v", i, x, y)
			}
		case 2:
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("Int63 diverged at %d: %v vs %v", i, x, y)
			}
		case 3:
			if x, y := a.Intn(97), b.Intn(97); x != y {
				t.Fatalf("Intn diverged at %d: %v vs %v", i, x, y)
			}
		case 4:
			pa := []int{0, 1, 2, 3, 4, 5, 6}
			pb := append([]int(nil), pa...)
			a.Shuffle(len(pa), func(i, j int) { pa[i], pa[j] = pa[j], pa[i] })
			b.Shuffle(len(pb), func(i, j int) { pb[i], pb[j] = pb[j], pb[i] })
			if !reflect.DeepEqual(pa, pb) {
				t.Fatalf("Shuffle diverged at %d", i)
			}
		}
	}
}

// Restoring (seed, draws) mid-stream must continue the sequence exactly
// where the original left off.
func TestCountingSourceRestoreContinuesStream(t *testing.T) {
	src := NewCountingSource(7)
	rng := rand.New(src)
	for i := 0; i < 137; i++ {
		rng.NormFloat64()
	}
	st := src.State()
	want := make([]float64, 50)
	for i := range want {
		want[i] = rng.Float64()
	}

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back RNGState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	src2 := NewCountingSource(1) // wrong seed on purpose; Restore reseeds
	rng2 := rand.New(src2)
	src2.Restore(back)
	for i := range want {
		if got := rng2.Float64(); got != want[i] {
			t.Fatalf("draw %d after restore: %v, want %v", i, got, want[i])
		}
	}
	if src2.State().Seed != 7 {
		t.Fatal("restore did not adopt the checkpoint seed")
	}
}

func TestPolicyStateRoundTripJoint(t *testing.T) {
	src := NewGaussianPolicy(6, 3, []int{8}, 0.3, rand.New(rand.NewSource(1)))
	src.LogStd[1] = -0.7 // make LogStd non-uniform so the copy is observable
	st := CapturePolicy(src)
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back PolicyState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	dst := NewGaussianPolicy(6, 3, []int{8}, 0.5, rand.New(rand.NewSource(2)))
	wPtr := &dst.Net.Layers[0].W.Data[0]
	if err := RestorePolicy(dst, back); err != nil {
		t.Fatal(err)
	}
	if &dst.Net.Layers[0].W.Data[0] != wPtr {
		t.Fatal("restore reallocated the network weights")
	}
	s := tensor.Vector{0.1, -0.2, 0.3, -0.4, 0.5, -0.6}
	a := tensor.Vector{0.2, 0.1, -0.1}
	if got, want := dst.LogProb(s, a), src.LogProb(s, a); got != want {
		t.Fatalf("restored log-prob %v, want %v", got, want)
	}
}

func TestPolicyStateRoundTripShared(t *testing.T) {
	src := NewSharedGaussianPolicy(3, 2, []int{4}, 0.3, rand.New(rand.NewSource(5)))
	st := CapturePolicy(src)
	dst := NewSharedGaussianPolicy(3, 2, []int{4}, 0.5, rand.New(rand.NewSource(6)))
	if err := RestorePolicy(dst, st); err != nil {
		t.Fatal(err)
	}
	s := tensor.Vector{0.1, -0.2, 0.3, -0.4, 0.5, -0.6}
	a := tensor.Vector{0.2, 0.1, -0.1}
	if got, want := dst.LogProb(s, a), src.LogProb(s, a); got != want {
		t.Fatalf("restored log-prob %v, want %v", got, want)
	}
}

func TestRestorePolicyRejectsMismatch(t *testing.T) {
	joint := NewGaussianPolicy(6, 3, []int{8}, 0.3, rand.New(rand.NewSource(1)))
	shared := NewSharedGaussianPolicy(3, 2, []int{4}, 0.3, rand.New(rand.NewSource(1)))
	jointSt := CapturePolicy(joint)
	sharedSt := CapturePolicy(shared)
	if err := RestorePolicy(joint, sharedSt); err == nil {
		t.Fatal("shared checkpoint accepted by joint policy")
	}
	if err := RestorePolicy(shared, jointSt); err == nil {
		t.Fatal("joint checkpoint accepted by shared policy")
	}
	other := NewSharedGaussianPolicy(4, 2, []int{4}, 0.3, rand.New(rand.NewSource(1)))
	if err := RestorePolicy(other, sharedSt); err == nil {
		t.Fatal("device-count mismatch accepted")
	}
}

// TestRestorePolicyRejectsNonFiniteLogStd: a non-finite log-σ is refused
// before the network or log-σ is written.
func TestRestorePolicyRejectsNonFiniteLogStd(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		st := CapturePolicy(NewGaussianPolicy(6, 3, []int{8}, 0.3, rand.New(rand.NewSource(1))))
		st.LogStd[2] = bad
		p := NewGaussianPolicy(6, 3, []int{8}, 0.3, rand.New(rand.NewSource(2)))
		want := CapturePolicy(p)
		err := RestorePolicy(p, st)
		if err == nil {
			t.Errorf("log-σ %v accepted", bad)
		} else if msg := fmt.Sprintf("log-σ 2 is %v", bad); !strings.Contains(err.Error(), msg) {
			t.Errorf("error %q does not mention %q", err, msg)
		}
		if !reflect.DeepEqual(CapturePolicy(p), want) {
			t.Errorf("log-σ %v: rejected restore changed the policy", bad)
		}
	}
}

func TestOptimizersExposed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	actor := NewGaussianPolicy(4, 2, []int{4}, 0.3, rng)
	critic := nn.NewMLP([]int{4, 4, 1}, nn.Tanh, nn.Identity, rng)
	ppo, err := NewPPO(DefaultPPOConfig(), actor, critic, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ao, co := ppo.Optimizers(); ao == nil || co == nil || ao == co {
		t.Fatal("PPO optimizers not exposed as distinct instances")
	}
	a2c, err := NewA2C(DefaultA2CConfig(), actor, critic)
	if err != nil {
		t.Fatal(err)
	}
	if ao, co := a2c.Optimizers(); ao == nil || co == nil || ao == co {
		t.Fatal("A2C optimizers not exposed as distinct instances")
	}
}

func TestNormalizerStateRoundTrip(t *testing.T) {
	src := NewObsNormalizer(3, 8)
	for i := 0; i < 17; i++ {
		src.Update(tensor.Vector{float64(i), float64(i) * 0.5, -float64(i)})
	}
	st := CaptureNormalizer(src)
	dst := NewObsNormalizer(3, 10)
	if err := RestoreNormalizer(dst, st); err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{2, 3, 4}
	got := append(tensor.Vector(nil), dst.Normalize(x.Clone())...)
	want := append(tensor.Vector(nil), src.Normalize(x.Clone())...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored normalizer output %v, want %v", got, want)
	}
	if dst.Clip != 8 {
		t.Fatal("clip not restored")
	}

	if CaptureNormalizer(nil).Mean != nil {
		t.Fatal("nil normalizer snapshot not empty")
	}
	if err := RestoreNormalizer(nil, NormalizerState{}); err != nil {
		t.Fatal("empty state into nil normalizer should be fine")
	}
	if err := RestoreNormalizer(nil, st); err == nil {
		t.Fatal("normalizer state into norm-free trainer accepted")
	}
	if err := RestoreNormalizer(dst, NormalizerState{}); err == nil {
		t.Fatal("empty state into live normalizer accepted")
	}
	if err := RestoreNormalizer(NewObsNormalizer(5, 10), st); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestRestorePolicyOneDeviceSharedTag: a 1-device shared actor is captured
// under the joint tag, and a checkpoint that carries it under the shared tag
// with n = 1, as earlier versions wrote it, still restores.
func TestRestorePolicyOneDeviceSharedTag(t *testing.T) {
	src := NewSharedGaussianPolicy(1, 2, []int{4}, 0.3, rand.New(rand.NewSource(3)))
	st := CapturePolicy(src)
	if st.Arch != policyArchJoint || st.N != 0 {
		t.Fatalf("1-device shared actor captured as %q with n = %d", st.Arch, st.N)
	}
	st.Arch, st.N = policyArchShared, 1
	dst := NewGaussianPolicy(2, 1, []int{4}, 0.5, rand.New(rand.NewSource(4)))
	if err := RestorePolicy(dst, st); err != nil {
		t.Fatal(err)
	}
	s, a := tensor.Vector{0.3, -0.1}, tensor.Vector{0.2}
	if got, want := dst.LogProb(s, a), src.LogProb(s, a); got != want {
		t.Fatalf("restored log-prob %v, want %v", got, want)
	}
}
