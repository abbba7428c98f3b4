package rl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func newShared(t *testing.T, n, perDev int, seed int64) *GaussianPolicy {
	t.Helper()
	return NewSharedGaussianPolicy(n, perDev, []int{6}, 0.5, rand.New(rand.NewSource(seed)))
}

func TestSharedPolicyDims(t *testing.T) {
	p := newShared(t, 5, 4, 1)
	if p.StateDim() != 20 || p.ActionDim() != 5 {
		t.Fatalf("dims = %d/%d", p.StateDim(), p.ActionDim())
	}
	if len(p.LogStd) != 1 {
		t.Fatal("shared policy should have one logstd")
	}
}

func TestSharedPolicyConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"n":      func() { NewSharedGaussianPolicy(0, 3, []int{4}, 0.5, rand.New(rand.NewSource(1))) },
		"perDev": func() { NewSharedGaussianPolicy(3, 0, []int{4}, 0.5, rand.New(rand.NewSource(1))) },
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

func TestSharedPolicyWeightSharing(t *testing.T) {
	// Two devices with identical history slices must get identical means.
	p := newShared(t, 2, 3, 2)
	s := tensor.Vector{0.1, 0.2, 0.3, 0.1, 0.2, 0.3}
	mu := p.Mean(s)
	if mu[0] != mu[1] {
		t.Fatalf("identical inputs gave different means: %v", mu)
	}
	// Different slices give different means (almost surely).
	s2 := tensor.Vector{0.1, 0.2, 0.3, -0.9, 0.5, 0.0}
	mu2 := p.Mean(s2)
	if mu2[0] == mu2[1] {
		t.Fatal("distinct inputs gave identical means")
	}
}

func TestSharedPolicyLogProbMatchesDensity(t *testing.T) {
	p := newShared(t, 3, 2, 3)
	s := tensor.Vector{0.4, -0.2, 0.1, 0.9, -0.5, 0.3}
	a := tensor.Vector{0.2, -0.1, 0.4}
	mu := p.Mean(s)
	sigma := math.Exp(p.LogStd[0])
	want := 0.0
	for i := range a {
		z := (a[i] - mu[i]) / sigma
		want += -0.5*z*z - p.LogStd[0] - 0.5*math.Log(2*math.Pi)
	}
	if got := p.LogProb(s, a); !testutil.Within(got, want, 1e-12) {
		t.Fatalf("LogProb = %v want %v", got, want)
	}
}

func TestSharedPolicySampleStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := newShared(t, 2, 2, 4)
	s := tensor.Vector{0.3, 0.3, -0.3, -0.3}
	mu := p.Mean(s).Clone()
	var sum0 float64
	const n = 8000
	for i := 0; i < n; i++ {
		a, logp := p.Sample(s, rng)
		if math.IsNaN(logp) {
			t.Fatal("NaN logp")
		}
		sum0 += a[0]
	}
	if !testutil.Within(sum0/n, mu[0], 0.05) {
		t.Fatalf("sample mean %v vs μ %v", sum0/n, mu[0])
	}
}

func TestSharedPolicyGradLogStd(t *testing.T) {
	p := newShared(t, 3, 2, 5)
	s := tensor.Vector{0.4, -0.2, 0.1, 0.9, -0.5, 0.3}
	a := tensor.Vector{0.2, -0.1, 0.4}
	p.ZeroGrad()
	p.BackwardLogProb(s, a, 1)
	h := 1e-6
	orig := p.LogStd[0]
	p.LogStd[0] = orig + h
	lp := p.LogProb(s, a)
	p.LogStd[0] = orig - h
	lm := p.LogProb(s, a)
	p.LogStd[0] = orig
	num := (lp - lm) / (2 * h)
	if !testutil.Close(p.GLogStd[0], num, 1e-4, 1e-4) {
		t.Fatalf("dlogσ analytic %v numeric %v", p.GLogStd[0], num)
	}
}

func TestSharedPolicyGradNet(t *testing.T) {
	p := newShared(t, 2, 3, 6)
	s := tensor.Vector{0.1, -0.4, 0.2, 0.7, 0.0, -0.3}
	a := tensor.Vector{0.5, -0.2}
	p.ZeroGrad()
	p.BackwardLogProb(s, a, 1)
	params := p.Net.Params()
	h := 1e-6
	for pi := range params {
		for _, i := range []int{0, len(params[pi].W) - 1} {
			orig := params[pi].W[i]
			params[pi].W[i] = orig + h
			lp := p.LogProb(s, a)
			params[pi].W[i] = orig - h
			lm := p.LogProb(s, a)
			params[pi].W[i] = orig
			num := (lp - lm) / (2 * h)
			if !testutil.Close(params[pi].G[i], num, 1e-4, 1e-4) {
				t.Fatalf("param %q[%d]: analytic %v numeric %v", params[pi].Name, i, params[pi].G[i], num)
			}
		}
	}
}

func TestSharedPolicyEntropyAndGrad(t *testing.T) {
	p := newShared(t, 4, 2, 7)
	want := 4 * (p.LogStd[0] + 0.5*math.Log(2*math.Pi*math.E))
	if !testutil.Within(p.Entropy(), want, 1e-9) {
		t.Fatalf("entropy = %v want %v", p.Entropy(), want)
	}
	p.ZeroGrad()
	p.AddEntropyGrad(0.01)
	if !testutil.Within(p.GLogStd[0], 0.04, 1e-12) {
		t.Fatalf("entropy grad = %v want 0.04 (coef·N)", p.GLogStd[0])
	}
}

func TestSharedPolicyCloneCopy(t *testing.T) {
	p := newShared(t, 2, 2, 8)
	c := p.ClonePolicy()
	s := tensor.Vector{0.1, 0.2, 0.3, 0.4}
	a := tensor.Vector{0.1, -0.1}
	if !testutil.Within(p.LogProb(s, a), c.LogProb(s, a), 1e-15) {
		t.Fatal("clone differs")
	}
	p.LogStd[0] += 0.3
	p.Net.Params()[0].W[0] += 0.2
	if testutil.Within(p.LogProb(s, a), c.LogProb(s, a), 1e-12) {
		t.Fatal("clone shares storage")
	}
	c.CopyFrom(p)
	if !testutil.Within(p.LogProb(s, a), c.LogProb(s, a), 1e-15) {
		t.Fatal("CopyFrom failed")
	}
}

func TestCopyFromTypeMismatchPanics(t *testing.T) {
	shared := newShared(t, 2, 2, 9)
	joint := NewGaussianPolicy(4, 2, []int{4}, 0.5, rand.New(rand.NewSource(9)))
	for name, f := range map[string]func(){
		"shared←joint": func() { shared.CopyFrom(joint) },
		"joint←shared": func() { joint.CopyFrom(shared) },
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

func TestSharedPolicyStateMismatchPanics(t *testing.T) {
	p := newShared(t, 2, 2, 10)
	for name, f := range map[string]func(){
		"mean":     func() { p.Mean(tensor.Vector{1}) },
		"backward": func() { p.BackwardLogProb(tensor.NewVector(4), tensor.Vector{1}, 1) },
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

func TestPPOWithSharedPolicyImproves(t *testing.T) {
	// Contextual bandit with per-device structure: device i's optimal
	// action is 0.5·s_i. The shared policy must learn the mapping once and
	// apply it to every device.
	rng := rand.New(rand.NewSource(11))
	const n, perDev = 4, 1
	actor := NewSharedGaussianPolicy(n, perDev, []int{12}, 0.4, rng)
	critic := nn.NewMLP([]int{n * perDev, 16, 1}, nn.Tanh, nn.Identity, rng)
	cfg := DefaultPPOConfig()
	cfg.ActorLR = 1e-2
	cfg.CriticLR = 1e-2
	cfg.TargetKL = 0
	agent, err := NewPPO(cfg, actor, critic, rng)
	if err != nil {
		t.Fatal(err)
	}
	reward := func(s, a tensor.Vector) float64 {
		var r float64
		for i := 0; i < n; i++ {
			d := a[i] - 0.5*s[i]
			r -= d * d
		}
		return r / n
	}
	avg := func() float64 {
		var sum float64
		for i := 0; i < 300; i++ {
			s := tensor.NewVector(n)
			for j := range s {
				s[j] = rng.Float64()*2 - 1
			}
			a, _ := actor.Sample(s, rng)
			sum += reward(s, a)
		}
		return sum / 300
	}
	before := avg()
	for round := 0; round < 25; round++ {
		buf := NewBuffer(128)
		for !buf.Full() {
			s := tensor.NewVector(n)
			for j := range s {
				s[j] = rng.Float64()*2 - 1
			}
			a, logp := actor.Sample(s, rng)
			buf.Add(Transition{State: s, Action: a.Clone(), Reward: reward(s, a),
				LogProb: logp, Value: agent.Value(s), Done: true})
		}
		if _, err := agent.Update(MakeBatchInto(&Batch{}, buf, 0, cfg.Gamma, cfg.Lambda)); err != nil {
			t.Fatal(err)
		}
	}
	after := avg()
	if after <= before {
		t.Fatalf("shared-policy PPO did not improve: %v → %v", before, after)
	}
}

// TestMeanIntoBitIdenticalToMean pins the float64 fleet-batched serving
// path: batching all devices through one ForwardBatch must not change a
// single output bit relative to the per-device Forward loop.
func TestMeanIntoBitIdenticalToMean(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := NewSharedGaussianPolicy(23, 6, []int{64, 64}, 0.5, rng)
	s := tensor.NewVector(p.StateDim())
	for i := range s {
		s[i] = rng.NormFloat64() * 3
	}
	want := p.Mean(s)
	got := tensor.NewVector(p.Groups)
	p.MeanInto(got, s)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("dev %d: MeanInto %x differs from Mean %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
