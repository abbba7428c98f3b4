package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sched"
)

func TestSharedArchTrainerAndRoundTrip(t *testing.T) {
	sys := testbedSystem(4, 21)
	cfg := fastConfig()
	cfg.Arch = ArchShared
	cfg.Hidden = []int{8}
	tr, err := NewTrainer(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(nil); err != nil {
		t.Fatal(err)
	}
	agent := tr.Agent()
	if p, ok := agent.Policy.(*rl.GaussianPolicy); !ok || p.Groups != 4 {
		t.Fatalf("expected a 4-group shared policy, got %T", agent.Policy)
	}
	path := t.TempDir() + "/shared.gob"
	if err := agent.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAgent(path)
	if err != nil {
		t.Fatal(err)
	}
	sp, ok := back.Policy.(*rl.GaussianPolicy)
	if !ok {
		t.Fatalf("round trip lost the policy type: %T", back.Policy)
	}
	if sp.Groups != 4 {
		t.Fatalf("restored Groups = %d", sp.Groups)
	}
	// Decisions identical after the round trip.
	s1, err := agent.Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := back.Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	ctx := sched.Context{Sys: sys, Clock: 33}
	f1, err := s1.Frequencies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s2.Frequencies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("restored shared agent decides differently")
		}
	}
}

func TestUnknownArchRejected(t *testing.T) {
	sys := testbedSystem(2, 22)
	cfg := fastConfig()
	cfg.Arch = Arch("transformer")
	if _, err := NewTrainer(sys, cfg); err == nil {
		t.Fatal("unknown architecture accepted")
	}
}

func TestCalibrateRewardScale(t *testing.T) {
	sys := testbedSystem(3, 23)
	scale, err := CalibrateRewardScale(sys, 5)
	if err != nil {
		t.Fatal(err)
	}
	if scale <= 0 {
		t.Fatalf("scale = %v", scale)
	}
	// The probe's mean cost must be within the range of plausible costs:
	// at λ=1 it is at least the fastest possible iteration duration.
	if scale < 1 {
		t.Fatalf("scale %v implausibly small", scale)
	}
	if _, err := CalibrateRewardScale(sys, 0); err == nil {
		t.Fatal("zero probe iterations accepted")
	}
}

func TestMarshalUnknownPolicyType(t *testing.T) {
	a := &Agent{Policy: fakePolicy{}, Critic: nil}
	if _, err := a.MarshalBinary(); err == nil {
		t.Fatal("unknown policy type accepted")
	}
}

// fakePolicy satisfies rl.Policy but is not serializable.
type fakePolicy struct{ rl.Policy }

func TestA2CTrainerRuns(t *testing.T) {
	sys := testbedSystem(2, 31)
	cfg := fastConfig()
	cfg.Algo = AlgoA2C
	tr, err := NewTrainer(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if eps[len(eps)-1].Updates < 1 {
		t.Fatal("A2C trainer never updated")
	}
	// The trained agent still schedules feasibly.
	drl, err := tr.Agent().Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(sys, drl, 0, 5); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownAlgoRejected(t *testing.T) {
	sys := testbedSystem(2, 32)
	cfg := fastConfig()
	cfg.Algo = Algo("trpo")
	if _, err := NewTrainer(sys, cfg); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Invalid A2C config is caught when A2C is selected.
	cfg = fastConfig()
	cfg.Algo = AlgoA2C
	cfg.A2C.ActorLR = 0
	if _, err := NewTrainer(sys, cfg); err == nil {
		t.Fatal("invalid A2C config accepted")
	}
}

func TestNormalizedObsTrainingAndRoundTrip(t *testing.T) {
	sys := testbedSystem(3, 41)
	cfg := fastConfig()
	cfg.NormalizeObs = true
	tr, err := NewTrainer(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(nil); err != nil {
		t.Fatal(err)
	}
	agent := tr.Agent()
	if agent.Norm == nil {
		t.Fatal("agent lost its normalizer")
	}
	if agent.Norm.Count == 0 {
		t.Fatal("normalizer never updated")
	}
	path := t.TempDir() + "/norm.gob"
	if err := agent.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAgent(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Norm == nil || back.Norm.Count != agent.Norm.Count {
		t.Fatal("normalizer lost in round trip")
	}
	// Decisions match exactly, and the normalizer actually matters: a
	// scheduler stripped of it decides differently.
	s1, err := agent.Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := back.Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	ctx := sched.Context{Sys: sys, Clock: 123}
	f1, err := s1.Frequencies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s2.Frequencies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("normalized agent decides differently after reload")
		}
	}
	stripped, err := back.Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	stripped.Norm = nil
	f3, err := stripped.Frequencies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range f1 {
		if f1[i] != f3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("normalizer has no effect on decisions")
	}
}

// TestUnmarshalAgentBoundsState: a shared actor whose state (N devices ×
// per-device inputs) exceeds maxStateDim, or whose N·inputs overflows, is
// refused at decode instead of allocating on its first Mean.
func TestUnmarshalAgentBoundsState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	critic := nn.NewMLP([]int{2, 1}, nn.Tanh, nn.Identity, rng)
	for _, n := range []int{maxStateDim / 2, maxStateDim/2 + 1, math.MaxInt} {
		p := rl.NewSharedGaussianPolicy(1, 2, nil, 0.5, rng)
		p.Groups = n
		data, err := (&Agent{Policy: p, Critic: critic}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		err = new(Agent).UnmarshalBinary(data)
		if accept := n <= maxStateDim/2; (err == nil) != accept {
			t.Errorf("N = %d with 2 inputs per device: error %v, want accepted %v", n, err, accept)
		}
	}
}

// TestUnmarshalAgentRejectsBadPolicyState: an agent file whose normalizer
// cannot standardize the actor's state, or whose log-σ does not match the
// actor's outputs, is refused at decode rather than at its first decision.
func TestUnmarshalAgentRejectsBadPolicyState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	critic := nn.NewMLP([]int{2, 1}, nn.Tanh, nn.Identity, rng)
	for name, mut := range map[string]func(*Agent){
		"mean":  func(a *Agent) { a.Norm.Mean[0] = math.NaN() },
		"m2":    func(a *Agent) { a.Norm.M2[1] = -1 },
		"count": func(a *Agent) { a.Norm.Count = -5 },
		"clip":  func(a *Agent) { a.Norm.Clip = math.NaN() },
		"dim": func(a *Agent) {
			a.Norm.Mean, a.Norm.M2 = make([]float64, 3), make([]float64, 3)
		},
		"logstd": func(a *Agent) {
			a.Policy = &rl.GaussianPolicy{Net: nn.NewMLP([]int{1, 3}, nn.Tanh, nn.Tanh, rng), Groups: 2, LogStd: []float64{0}}
		},
	} {
		a := &Agent{
			Policy: rl.NewSharedGaussianPolicy(2, 1, []int{2}, 0.5, rng),
			Critic: critic,
			Norm:   &rl.ObsNormalizer{Mean: make([]float64, 2), M2: make([]float64, 2), Count: 3, Clip: 5},
		}
		mut(a)
		data, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := new(Agent).UnmarshalBinary(data); err == nil {
			t.Errorf("%s: malformed agent decoded", name)
		}
	}
}

// decodeMutatedAgent builds a small joint agent, applies mut to its policy
// and critic, encodes it and returns the decode error.
func decodeMutatedAgent(t *testing.T, mut func(policy *rl.GaussianPolicy, critic *nn.MLP)) error {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	policy := rl.NewGaussianPolicy(3, 2, []int{4}, 0.5, rng)
	critic := nn.NewMLP([]int{3, 4, 1}, nn.Tanh, nn.Identity, rng)
	mut(policy, critic)
	data, err := (&Agent{Policy: policy, Critic: critic}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return new(Agent).UnmarshalBinary(data)
}

// TestUnmarshalAgentRejectsNaNPolicyWeight: an agent file whose first
// policy weight is NaN would fail its first decision; it must not decode.
func TestUnmarshalAgentRejectsNaNPolicyWeight(t *testing.T) {
	if err := decodeMutatedAgent(t, func(p *rl.GaussianPolicy, _ *nn.MLP) { p.Net.Layers[0].W.Data[0] = math.NaN() }); err == nil {
		t.Fatal("an agent with a NaN policy weight decoded")
	}
}

// TestUnmarshalAgentRejectsInfLogStd: a +Inf log-σ makes every sampled
// action infinite; it must not decode, and the error names the element.
func TestUnmarshalAgentRejectsInfLogStd(t *testing.T) {
	err := decodeMutatedAgent(t, func(p *rl.GaussianPolicy, _ *nn.MLP) { p.LogStd[1] = math.Inf(1) })
	if err == nil {
		t.Fatal("an agent with a +Inf log-σ decoded")
	}
	if want := "logstd 1 is +Inf"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// TestUnmarshalAgentRejectsNonFiniteCritic: the critic's weights and
// biases are held to the same rule as the policy's.
func TestUnmarshalAgentRejectsNonFiniteCritic(t *testing.T) {
	if err := decodeMutatedAgent(t, func(_ *rl.GaussianPolicy, c *nn.MLP) { c.Layers[1].B[0] = math.Inf(-1) }); err == nil {
		t.Fatal("an agent with a -Inf critic bias decoded")
	}
}

// TestOneDeviceSharedAgentWire: a 1-device shared actor is the joint
// actor's network, so it is written under the joint tag, and a file that
// carries it under the shared tag with N = 1, as earlier versions wrote it,
// still decodes to the same policy.
func TestOneDeviceSharedAgentWire(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := &Agent{Policy: rl.NewSharedGaussianPolicy(1, 3, []int{4}, 0.5, rng), Critic: nn.NewMLP([]int{3, 1}, nn.Tanh, nn.Identity, rng)}
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var w agentWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	if w.Arch != string(ArchJoint) || w.N != 0 {
		t.Fatalf("1-device shared actor written as %q with N = %d", w.Arch, w.N)
	}
	w.Arch, w.N = string(ArchShared), 1
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(w); err != nil {
		t.Fatal(err)
	}
	var back Agent
	if err := back.UnmarshalBinary(old.Bytes()); err != nil {
		t.Fatalf("shared tag with N = 1 rejected: %v", err)
	}
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("the decoded policy re-encodes differently")
	}
}
