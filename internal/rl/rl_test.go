package rl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// approx delegates to the shared helper so every package compares floats
// the same way.
var approx = testutil.Within

func TestGaussianLogProbMatchesDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewGaussianPolicy(3, 2, []int{8}, 0.7, rng)
	s := tensor.Vector{0.1, -0.4, 0.9}
	a := tensor.Vector{0.3, -0.2}
	mu := p.Mean(s).Clone()
	want := 0.0
	for i := range a {
		sigma := math.Exp(p.LogStd[i])
		z := (a[i] - mu[i]) / sigma
		want += -0.5*z*z - math.Log(sigma) - 0.5*math.Log(2*math.Pi)
	}
	if got := p.LogProb(s, a); !approx(got, want, 1e-12) {
		t.Fatalf("LogProb = %v want %v", got, want)
	}
}

func TestGaussianSampleStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewGaussianPolicy(2, 1, []int{4}, 0.5, rng)
	s := tensor.Vector{0.5, -0.5}
	mu := p.Mean(s).Clone()
	var sum, sq float64
	const n = 20000
	for i := 0; i < n; i++ {
		a, logp := p.Sample(s, rng)
		if math.IsNaN(logp) || math.IsInf(logp, 0) {
			t.Fatal("non-finite logp")
		}
		sum += a[0]
		sq += a[0] * a[0]
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if !approx(mean, mu[0], 0.02) {
		t.Fatalf("sample mean %v vs μ %v", mean, mu[0])
	}
	if !approx(std, 0.5, 0.02) {
		t.Fatalf("sample std %v vs σ 0.5", std)
	}
}

func TestGaussianEntropyFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewGaussianPolicy(2, 3, []int{4}, 1.0, rng)
	want := 3 * (math.Log(1.0) + 0.5*math.Log(2*math.Pi*math.E))
	if got := p.Entropy(); !approx(got, want, 1e-9) {
		t.Fatalf("Entropy = %v want %v", got, want)
	}
	// Entropy grows with σ.
	p.LogStd.Fill(math.Log(2))
	if p.Entropy() <= want {
		t.Fatal("entropy should increase with σ")
	}
}

func TestBackwardLogProbGradientLogStd(t *testing.T) {
	// Finite-difference check of ∂logπ/∂logσ.
	rng := rand.New(rand.NewSource(4))
	p := NewGaussianPolicy(2, 2, []int{6}, 0.8, rng)
	s := tensor.Vector{0.2, -0.7}
	a := tensor.Vector{0.5, -0.1}
	p.ZeroGrad()
	p.BackwardLogProb(s, a, 1)
	h := 1e-6
	for j := range p.LogStd {
		orig := p.LogStd[j]
		p.LogStd[j] = orig + h
		lp := p.LogProb(s, a)
		p.LogStd[j] = orig - h
		lm := p.LogProb(s, a)
		p.LogStd[j] = orig
		num := (lp - lm) / (2 * h)
		if !approx(p.GLogStd[j], num, 1e-4) {
			t.Fatalf("dlogσ[%d]: analytic %v numeric %v", j, p.GLogStd[j], num)
		}
	}
}

func TestBackwardLogProbGradientNet(t *testing.T) {
	// Finite-difference check of ∂logπ/∂θ for a few network weights.
	rng := rand.New(rand.NewSource(5))
	p := NewGaussianPolicy(3, 2, []int{5}, 0.6, rng)
	s := tensor.Vector{0.4, 0.1, -0.3}
	a := tensor.Vector{-0.2, 0.6}
	p.ZeroGrad()
	p.BackwardLogProb(s, a, 1)
	params := p.Net.Params()
	h := 1e-6
	for pi := range params {
		for _, i := range []int{0, len(params[pi].W) / 2} {
			orig := params[pi].W[i]
			params[pi].W[i] = orig + h
			lp := p.LogProb(s, a)
			params[pi].W[i] = orig - h
			lm := p.LogProb(s, a)
			params[pi].W[i] = orig
			num := (lp - lm) / (2 * h)
			if !approx(params[pi].G[i], num, 1e-4) {
				t.Fatalf("param %q[%d]: analytic %v numeric %v", params[pi].Name, i, params[pi].G[i], num)
			}
		}
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewGaussianPolicy(2, 1, []int{4}, 0.5, rng)
	c := p.Clone()
	s := tensor.Vector{0.3, 0.3}
	a := tensor.Vector{0.1}
	if !approx(p.LogProb(s, a), c.LogProb(s, a), 1e-15) {
		t.Fatal("clone logprob differs")
	}
	// Drift the original, then resync.
	p.LogStd[0] += 0.5
	p.Net.Params()[0].W[0] += 0.1
	if approx(p.LogProb(s, a), c.LogProb(s, a), 1e-12) {
		t.Fatal("clone should be independent")
	}
	c.CopyFrom(p)
	if !approx(p.LogProb(s, a), c.LogProb(s, a), 1e-15) {
		t.Fatal("CopyFrom did not sync")
	}
}

func TestAddEntropyGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewGaussianPolicy(1, 3, []int{3}, 0.5, rng)
	p.ZeroGrad()
	p.AddEntropyGrad(-0.01)
	for _, g := range p.GLogStd {
		if g != -0.01 {
			t.Fatalf("entropy grad = %v", g)
		}
	}
}

func TestGAEKnownValues(t *testing.T) {
	rewards := []float64{1, 1, 1}
	values := []float64{0.5, 0.5, 0.5}
	dones := []bool{false, false, true}
	gamma, lambda := 0.9, 1.0
	adv, ret := make([]float64, 3), make([]float64, 3)
	GAEInto(adv, ret, rewards, values, 123 /* ignored: final done */, dones, gamma, lambda)
	// With λ=1 and terminal end: A_t = Σ γ^k r − V(s_t).
	mc2 := 1.0
	mc1 := 1 + gamma*mc2
	mc0 := 1 + gamma*mc1
	for i, want := range []float64{mc0 - 0.5, mc1 - 0.5, mc2 - 0.5} {
		if !approx(adv[i], want, 1e-12) {
			t.Fatalf("adv[%d] = %v want %v", i, adv[i], want)
		}
		if !approx(ret[i], adv[i]+values[i], 1e-12) {
			t.Fatalf("ret[%d] = %v", i, ret[i])
		}
	}
}

func TestGAEBootstrapsLastValue(t *testing.T) {
	rewards := []float64{0}
	values := []float64{1}
	dones := []bool{false}
	adv := make([]float64, 1)
	GAEInto(adv, make([]float64, 1), rewards, values, 2, dones, 0.5, 0.9)
	// δ = 0 + 0.5·2 − 1 = 0; A = 0.
	if !approx(adv[0], 0, 1e-12) {
		t.Fatalf("adv = %v", adv[0])
	}
}

func TestGAEDoneResetsAccumulation(t *testing.T) {
	// Identical segments separated by done must get identical advantages.
	rewards := []float64{1, 2, 1, 2}
	values := []float64{0, 0, 0, 0}
	dones := []bool{false, true, false, true}
	adv := make([]float64, 4)
	GAEInto(adv, make([]float64, 4), rewards, values, 0, dones, 0.9, 0.9)
	if !approx(adv[0], adv[2], 1e-12) || !approx(adv[1], adv[3], 1e-12) {
		t.Fatalf("episode bleed-through: %v", adv)
	}
}

func TestGAEPanics(t *testing.T) {
	adv, ret := make([]float64, 1), make([]float64, 1)
	for name, f := range map[string]func(){
		"len":    func() { GAEInto(adv, ret, []float64{1}, []float64{1, 2}, 0, []bool{false}, 0.9, 0.9) },
		"out":    func() { GAEInto(adv, nil, []float64{1}, []float64{1}, 0, []bool{false}, 0.9, 0.9) },
		"gamma":  func() { GAEInto(adv, ret, []float64{1}, []float64{1}, 0, []bool{false}, 1.5, 0.9) },
		"lambda": func() { GAEInto(adv, ret, []float64{1}, []float64{1}, 0, []bool{false}, 0.9, -0.1) },
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

func TestNormalizeAdvantages(t *testing.T) {
	adv := []float64{1, 2, 3, 4, 5}
	NormalizeAdvantages(adv)
	var mean, sq float64
	for _, a := range adv {
		mean += a
	}
	mean /= 5
	for _, a := range adv {
		sq += (a - mean) * (a - mean)
	}
	if !approx(mean, 0, 1e-12) || !approx(math.Sqrt(sq/5), 1, 1e-12) {
		t.Fatalf("normalized mean/std = %v/%v", mean, math.Sqrt(sq/5))
	}
	// Constant batch: centered, not divided by ~0.
	c := []float64{2, 2, 2}
	NormalizeAdvantages(c)
	for _, a := range c {
		if !approx(a, 0, 1e-12) {
			t.Fatalf("constant batch = %v", c)
		}
	}
	NormalizeAdvantages(nil) // must not panic
}

func TestBufferSemantics(t *testing.T) {
	b := NewBuffer(2)
	if b.Cap() != 2 || b.Len() != 0 || b.Full() {
		t.Fatal("fresh buffer state wrong")
	}
	b.Add(Transition{Reward: 1})
	b.Add(Transition{Reward: 2})
	if !b.Full() || b.Len() != 2 {
		t.Fatal("buffer should be full")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overfill did not panic")
			}
		}()
		b.Add(Transition{})
	}()
	if b.Items()[1].Reward != 2 {
		t.Fatal("items order wrong")
	}
	b.Clear()
	if b.Len() != 0 || b.Full() {
		t.Fatal("clear failed")
	}
}

func TestNewBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity should panic")
		}
	}()
	NewBuffer(0)
}

func TestMakeBatch(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 3; i++ {
		b.Add(Transition{
			State:   tensor.Vector{float64(i)},
			Action:  tensor.Vector{float64(-i)},
			Reward:  1,
			LogProb: float64(i) * 0.1,
			Value:   0.5,
			Done:    i == 2,
		})
	}
	batch := MakeBatchInto(&Batch{}, b, 0, 0.9, 0.95)
	if batch.Len() != 3 {
		t.Fatalf("batch len %d", batch.Len())
	}
	if batch.States[2][0] != 2 || batch.Actions[1][0] != -1 || batch.OldLogProb[1] != 0.1 {
		t.Fatal("batch wiring wrong")
	}
	// Advantages are normalized.
	var mean float64
	for _, a := range batch.Advantages {
		mean += a
	}
	if !approx(mean/3, 0, 1e-12) {
		t.Fatalf("advantage mean %v", mean/3)
	}
}

func TestPPOConfigValidate(t *testing.T) {
	if err := DefaultPPOConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	muts := map[string]func(*PPOConfig){
		"gamma":  func(c *PPOConfig) { c.Gamma = 1.5 },
		"lambda": func(c *PPOConfig) { c.Lambda = -1 },
		"clip":   func(c *PPOConfig) { c.ClipEps = 0 },
		"lr":     func(c *PPOConfig) { c.ActorLR = 0 },
		"epochs": func(c *PPOConfig) { c.Epochs = 0 },
		"mb":     func(c *PPOConfig) { c.MinibatchSize = -1 },
		"coef":   func(c *PPOConfig) { c.EntropyCoef = -1 },
	}
	for name, mut := range muts {
		c := DefaultPPOConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestNewPPOArchitectureChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	actor := NewGaussianPolicy(3, 1, []int{4}, 0.5, rng)
	badOut := nn.NewMLP([]int{3, 4, 2}, nn.Tanh, nn.Identity, rng)
	if _, err := NewPPO(DefaultPPOConfig(), actor, badOut, rng); err == nil {
		t.Fatal("critic with 2 outputs accepted")
	}
	badIn := nn.NewMLP([]int{5, 4, 1}, nn.Tanh, nn.Identity, rng)
	if _, err := NewPPO(DefaultPPOConfig(), actor, badIn, rng); err == nil {
		t.Fatal("state-dim mismatch accepted")
	}
	bad := DefaultPPOConfig()
	bad.Gamma = 2
	good := nn.NewMLP([]int{3, 4, 1}, nn.Tanh, nn.Identity, rng)
	if _, err := NewPPO(bad, actor, good, rng); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// banditEnv is a contextual bandit: reward = −(a − target(s))² with
// target(s) = 0.5·s₀. PPO should steer μ(s) toward the target.
func runBandit(t *testing.T, seed int64) (before, after float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	actor := NewGaussianPolicy(1, 1, []int{16}, 0.4, rng)
	critic := nn.NewMLP([]int{1, 16, 1}, nn.Tanh, nn.Identity, rng)
	cfg := DefaultPPOConfig()
	cfg.ActorLR = 1e-2
	cfg.CriticLR = 1e-2
	cfg.Epochs = 6
	cfg.TargetKL = 0 // keep epochs deterministic for the test
	agent, err := NewPPO(cfg, actor, critic, rng)
	if err != nil {
		t.Fatal(err)
	}
	avgReward := func(p *GaussianPolicy) float64 {
		var sum float64
		const n = 400
		for i := 0; i < n; i++ {
			s := tensor.Vector{rng.Float64()*2 - 1}
			a, _ := p.Sample(s, rng)
			target := 0.5 * s[0]
			sum += -(a[0] - target) * (a[0] - target)
		}
		return sum / n
	}
	before = avgReward(actor)
	for round := 0; round < 30; round++ {
		buf := NewBuffer(128)
		for !buf.Full() {
			s := tensor.Vector{rng.Float64()*2 - 1}
			a, logp := actor.Sample(s, rng)
			target := 0.5 * s[0]
			r := -(a[0] - target) * (a[0] - target)
			buf.Add(Transition{
				State: s.Clone(), Action: a.Clone(), Reward: r,
				LogProb: logp, Value: agent.Value(s), Done: true,
			})
		}
		batch := MakeBatchInto(&Batch{}, buf, 0, cfg.Gamma, cfg.Lambda)
		if _, err := agent.Update(batch); err != nil {
			t.Fatal(err)
		}
	}
	after = avgReward(actor)
	return before, after
}

func TestPPOImprovesBanditReward(t *testing.T) {
	before, after := runBandit(t, 42)
	if after <= before {
		t.Fatalf("PPO did not improve: %v → %v", before, after)
	}
	if after < -0.1 {
		t.Fatalf("final avg reward %v still far from optimum", after)
	}
}

func TestPPOUpdateStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	actor := NewGaussianPolicy(2, 1, []int{8}, 0.5, rng)
	critic := nn.NewMLP([]int{2, 8, 1}, nn.Tanh, nn.Identity, rng)
	cfg := DefaultPPOConfig()
	agent, err := NewPPO(cfg, actor, critic, rng)
	if err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(32)
	for !buf.Full() {
		s := tensor.Vector{rng.NormFloat64(), rng.NormFloat64()}
		a, logp := actor.Sample(s, rng)
		buf.Add(Transition{State: s.Clone(), Action: a.Clone(), Reward: rng.NormFloat64(),
			LogProb: logp, Value: agent.Value(s), Done: rng.Intn(4) == 0})
	}
	batch := MakeBatchInto(&Batch{}, buf, 0, cfg.Gamma, cfg.Lambda)
	st, err := agent.Update(batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.ClipFraction < 0 || st.ClipFraction > 1 {
		t.Fatalf("clip fraction %v", st.ClipFraction)
	}
	if st.EpochsRun < 1 || st.EpochsRun > cfg.Epochs {
		t.Fatalf("epochs run %d", st.EpochsRun)
	}
	if math.IsNaN(st.PolicyLoss) || math.IsNaN(st.ValueLoss) || math.IsNaN(st.ApproxKL) {
		t.Fatalf("NaN stats: %+v", st)
	}
	if l := st.Loss(cfg); math.IsNaN(l) {
		t.Fatal("NaN combined loss")
	}
	if _, err := agent.Update(&Batch{}); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestPPOFirstUpdateRatioIsOne(t *testing.T) {
	// Immediately after sampling, new params == old params, so ratios are 1
	// and nothing clips in the first epoch. We verify via a single-epoch
	// update with tiny LR: clip fraction stays ~0.
	rng := rand.New(rand.NewSource(10))
	actor := NewGaussianPolicy(1, 1, []int{4}, 0.5, rng)
	critic := nn.NewMLP([]int{1, 4, 1}, nn.Tanh, nn.Identity, rng)
	cfg := DefaultPPOConfig()
	cfg.Epochs = 1
	cfg.ActorLR = 1e-12
	cfg.MinibatchSize = 0
	agent, _ := NewPPO(cfg, actor, critic, rng)
	buf := NewBuffer(16)
	for !buf.Full() {
		s := tensor.Vector{rng.NormFloat64()}
		a, logp := actor.Sample(s, rng)
		buf.Add(Transition{State: s.Clone(), Action: a.Clone(), Reward: 1,
			LogProb: logp, Value: agent.Value(s), Done: true})
	}
	st, err := agent.Update(MakeBatchInto(&Batch{}, buf, 0, cfg.Gamma, cfg.Lambda))
	if err != nil {
		t.Fatal(err)
	}
	if st.ClipFraction != 0 {
		t.Fatalf("on-policy first epoch clipped %v of samples", st.ClipFraction)
	}
	if !approx(st.ApproxKL, 0, 1e-6) {
		t.Fatalf("on-policy KL = %v", st.ApproxKL)
	}
}

func TestGAELambdaZeroIsTD(t *testing.T) {
	// λ=0 ⇒ A_t = δ_t exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		r := make([]float64, n)
		v := make([]float64, n)
		d := make([]bool, n)
		for i := range r {
			r[i] = rng.NormFloat64()
			v[i] = rng.NormFloat64()
			d[i] = rng.Intn(3) == 0
		}
		last := rng.NormFloat64()
		adv := make([]float64, n)
		GAEInto(adv, make([]float64, n), r, v, last, d, 0.9, 0)
		for t := 0; t < n; t++ {
			nv := last
			if t < n-1 {
				nv = v[t+1]
			}
			notDone := 1.0
			if d[t] {
				notDone = 0
			}
			delta := r[t] + 0.9*nv*notDone - v[t]
			if !approx(adv[t], delta, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
