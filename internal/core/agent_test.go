package core

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/env"
	"repro/internal/fl"
	"repro/internal/guard"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/trace"
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
	path := t.TempDir() + "/shared.json"
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
	if err := a.Save(filepath.Join(t.TempDir(), "agent.json")); err == nil {
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
	path := t.TempDir() + "/norm.json"
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

// fileAgent completes a hand-built actor and critic into an agent the file
// decoder accepts: an environment layout whose history fits the actor's
// input width, and a reference of dim features with unit deviations.
func fileAgent(p *rl.GaussianPolicy, critic *nn.MLP, dim int) *Agent {
	cfg := env.DefaultConfig()
	cfg.History = p.Net.InDim()/p.Net.OutDim() - 1
	ref := &guard.Reference{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for i := range ref.Std {
		ref.Std[i] = 1
	}
	return &Agent{Policy: p, Critic: critic, EnvCfg: cfg, Ref: ref}
}

// roundTrip encodes a as Save does and decodes the bytes as LoadAgent does.
func roundTrip(t *testing.T, a *Agent) (*Agent, error) {
	t.Helper()
	data, err := encodeAgent(a)
	if err != nil {
		t.Fatal(err)
	}
	return decodeAgent(data)
}

// agentFileOf encodes a and reads the bytes back into the file's fields,
// for tests that corrupt one of them. JSON cannot carry a non-finite
// number, so those go to the decoder's checks (agentFile.agent) directly.
func agentFileOf(t *testing.T, a *Agent) *agentFile {
	t.Helper()
	data, err := encodeAgent(a)
	if err != nil {
		t.Fatal(err)
	}
	var f agentFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

// TestUnmarshalAgentBoundsState: a shared actor whose state (N devices ×
// per-device inputs) exceeds maxStateDim, or whose N·inputs overflows, is
// refused at decode by the state bound instead of allocating on its first
// Mean.
func TestUnmarshalAgentBoundsState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	critic := nn.NewMLP([]int{2, 1}, nn.Tanh, nn.Identity, rng)
	for _, c := range []struct{ n, in int }{
		{maxStateDim / 2, 2}, {maxStateDim/2 + 1, 2}, {math.MaxInt, 2},
		// N·4 wraps to a state of 4, which history 3 and a four-feature
		// reference fit: only the bound can refuse this file.
		{math.MaxInt/2 + 2, 4},
	} {
		p := rl.NewSharedGaussianPolicy(1, c.in, nil, 0.5, rng)
		p.Groups = c.n
		accept := c.n <= maxStateDim/c.in
		dim := p.StateDim()
		if dim <= 0 || dim > maxStateDim {
			dim = 1
		}
		_, err := roundTrip(t, fileAgent(p, critic, dim))
		if (err == nil) != accept {
			t.Errorf("N = %d with %d inputs per device: error %v, want accepted %v", c.n, c.in, err, accept)
		} else if !accept && !strings.Contains(err.Error(), "shared policy of") {
			t.Errorf("N = %d with %d inputs per device: refused by %q, want the state bound", c.n, c.in, err)
		}
	}
}

// TestUnmarshalAgentRejectsBadPolicyState: an agent file whose normalizer
// cannot standardize the actor's state, or whose log-σ does not match the
// actor's outputs, is refused at decode rather than at its first decision,
// by the restore check named in want.
func TestUnmarshalAgentRejectsBadPolicyState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	critic := nn.NewMLP([]int{2, 1}, nn.Tanh, nn.Identity, rng)
	for name, c := range map[string]struct {
		mut  func(*agentFile)
		want string
	}{
		"mean":  {func(f *agentFile) { f.Norm.Mean[0] = math.NaN() }, "normalizer"},
		"m2":    {func(f *agentFile) { f.Norm.M2[1] = -1 }, "normalizer"},
		"count": {func(f *agentFile) { f.Norm.Count = -5 }, "normalizer"},
		"clip":  {func(f *agentFile) { f.Norm.Clip = math.NaN() }, "normalizer"},
		"dim": {func(f *agentFile) {
			f.Norm.Mean, f.Norm.M2 = make([]float64, 3), make([]float64, 3)
		}, "normalizer"},
		"logstd": {func(f *agentFile) {
			f.Actor = rl.CapturePolicy(&rl.GaussianPolicy{Net: nn.NewMLP([]int{1, 3}, nn.Tanh, nn.Tanh, rng), Groups: 2, LogStd: []float64{0}})
		}, "log-σ"},
	} {
		a := fileAgent(rl.NewSharedGaussianPolicy(2, 1, []int{2}, 0.5, rng), critic, 2)
		a.Norm = &rl.ObsNormalizer{Mean: make([]float64, 2), M2: make([]float64, 2), Count: 3, Clip: 5}
		f := agentFileOf(t, a)
		if _, err := f.agent(); err != nil {
			t.Fatalf("%s: the unmutated file is rejected: %v", name, err)
		}
		c.mut(f)
		if _, err := f.agent(); err == nil {
			t.Errorf("%s: malformed agent decoded", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: refused by %q, want an error that names the %s", name, err, c.want)
		}
	}
}

// decodeMutatedAgent builds a small joint agent, applies mut to the
// policy and critic of its file and returns the decode error.
func decodeMutatedAgent(t *testing.T, mut func(policy *rl.PolicyState, critic *nn.MLPState)) error {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	policy := rl.NewGaussianPolicy(6, 2, []int{4}, 0.5, rng)
	critic := nn.NewMLP([]int{6, 4, 1}, nn.Tanh, nn.Identity, rng)
	f := agentFileOf(t, fileAgent(policy, critic, 6))
	if _, err := f.agent(); err != nil {
		t.Fatalf("the unmutated file is rejected: %v", err)
	}
	mut(&f.Actor, &f.Critic)
	_, err := f.agent()
	return err
}

// TestUnmarshalAgentRejectsNaNPolicyWeight: an agent file whose first
// policy weight is NaN would fail its first decision; it must not decode.
func TestUnmarshalAgentRejectsNaNPolicyWeight(t *testing.T) {
	if err := decodeMutatedAgent(t, func(p *rl.PolicyState, _ *nn.MLPState) { p.Net.W[0][0] = math.NaN() }); err == nil {
		t.Fatal("an agent with a NaN policy weight decoded")
	}
}

// TestUnmarshalAgentRejectsInfLogStd: a +Inf log-σ makes every sampled
// action infinite; it must not decode, and the error names the element.
func TestUnmarshalAgentRejectsInfLogStd(t *testing.T) {
	err := decodeMutatedAgent(t, func(p *rl.PolicyState, _ *nn.MLPState) { p.LogStd[1] = math.Inf(1) })
	if err == nil {
		t.Fatal("an agent with a +Inf log-σ decoded")
	}
	if want := "log-σ 1 is +Inf"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// TestUnmarshalAgentRejectsNonFiniteCritic: the critic's weights and
// biases are held to the same rule as the policy's.
func TestUnmarshalAgentRejectsNonFiniteCritic(t *testing.T) {
	if err := decodeMutatedAgent(t, func(_ *rl.PolicyState, c *nn.MLPState) { c.B[1][0] = math.Inf(-1) }); err == nil {
		t.Fatal("an agent with a -Inf critic bias decoded")
	}
}

// TestOneDeviceSharedAgentWire: a 1-device shared actor is the joint
// actor's network, so it is written under the joint tag, and a file that
// carries it under the shared tag with N = 1 still decodes to the same
// policy.
func TestOneDeviceSharedAgentWire(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := fileAgent(rl.NewSharedGaussianPolicy(1, 3, []int{4}, 0.5, rng), nn.NewMLP([]int{3, 1}, nn.Tanh, nn.Identity, rng), 3)
	data, err := encodeAgent(a)
	if err != nil {
		t.Fatal(err)
	}
	f := agentFileOf(t, a)
	if f.Actor.Arch != "gaussian" || f.Actor.N != 0 {
		t.Fatalf("1-device shared actor written as %q with N = %d", f.Actor.Arch, f.Actor.N)
	}
	f.Actor.Arch, f.Actor.N = "shared-gaussian", 1
	back, err := f.agent()
	if err != nil {
		t.Fatalf("shared tag with N = 1 rejected: %v", err)
	}
	again, err := encodeAgent(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("the decoded policy re-encodes differently")
	}
}

// TestDecodeAgentChecksEnv: the file's environment layout must validate,
// and its history must fit the actor: both actors read H+1 slots per
// action. A slot width of 1e308 (which JSON carries) once passed
// Validate and made the guard's probe index a trace slot out of range.
func TestDecodeAgentChecksEnv(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := fileAgent(rl.NewGaussianPolicy(6, 2, []int{4}, 0.5, rng), nn.NewMLP([]int{6, 1}, nn.Tanh, nn.Identity, rng), 6)
	if _, err := roundTrip(t, a); err != nil {
		t.Fatalf("well-formed agent rejected: %v", err)
	}
	for name, mut := range map[string]func(*env.Config){
		"slot 1e308": func(c *env.Config) { c.SlotSec = 1e308 },
		"history":    func(c *env.Config) { c.History++ },
	} {
		b := *a
		mut(&b.EnvCfg)
		if _, err := roundTrip(t, &b); err == nil {
			t.Errorf("%s: agent decoded", name)
		}
	}
}

// TestDecodeAgentChecksReference: the stored reference must score the
// actor's states: one finite mean and one finite, positive deviation per
// state feature. A zero deviation turns a matching feature's z-score into
// NaN, which the OOD gate's window skips.
func TestDecodeAgentChecksReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := fileAgent(rl.NewGaussianPolicy(4, 2, []int{3}, 0.5, rng), nn.NewMLP([]int{4, 1}, nn.Tanh, nn.Identity, rng), 4)
	for name, mut := range map[string]func(*guard.Reference) *guard.Reference{
		"missing":  func(*guard.Reference) *guard.Reference { return nil },
		"short":    func(r *guard.Reference) *guard.Reference { r.Mean, r.Std = r.Mean[:3], r.Std[:3]; return r },
		"zero std": func(r *guard.Reference) *guard.Reference { r.Std[2] = 0; return r },
		"neg std":  func(r *guard.Reference) *guard.Reference { r.Std[0] = -1; return r },
		"NaN mean": func(r *guard.Reference) *guard.Reference { r.Mean[1] = math.NaN(); return r },
		"Inf std":  func(r *guard.Reference) *guard.Reference { r.Std[3] = math.Inf(1); return r },
	} {
		f := agentFileOf(t, a)
		f.Ref = mut(f.Ref)
		if _, err := f.agent(); err == nil {
			t.Errorf("%s: agent decoded", name)
		}
	}
}

// TestDecodeAgentRejectsGob: a gob agent file from before the JSON format
// fails with an error that says so and how to replace it.
func TestDecodeAgentRejectsGob(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		Arch   string
		LogStd []float64
	}{"joint", []float64{-0.7}}); err != nil {
		t.Fatal(err)
	}
	_, err := decodeAgent(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "JSON") || !strings.Contains(err.Error(), "fltrain") {
		t.Fatalf("gob agent: error %v, want one saying agent files are JSON and to retrain with fltrain", err)
	}
}

// TestAgentFileMatchesCheckpoint: the agent file is the checkpoint's
// inference subset, so for one trainer its actor, critic and normalizer
// are byte-equal to the same fields of its checkpoint.
func TestAgentFileMatchesCheckpoint(t *testing.T) {
	cfg := fastConfig()
	cfg.NormalizeObs = true
	tr, err := NewTrainer(testbedSystem(3, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := tr.Agent().Save(filepath.Join(dir, "agent.json")); err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveCheckpoint(filepath.Join(dir, "train.ckpt")); err != nil {
		t.Fatal(err)
	}
	fields := func(name string) map[string]json.RawMessage {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	agent, ck := fields("agent.json"), fields("train.ckpt")
	for _, k := range []string{"actor", "critic", "norm"} {
		if len(agent[k]) == 0 || !bytes.Equal(agent[k], ck[k]) {
			t.Errorf("agent file's %q differs from the checkpoint's", k)
		}
	}
}

// TestLoadedAgentGuardsAgainstTraining: an agent trained without the
// observation normalizer, as fltrain trains it, carries its training
// distribution in its file, so a guard built from the loaded agent on a
// drifted system (every trace's bandwidth ×8) opens the OOD gate. Probed
// from the system being served, the reference would call the drift normal.
func TestLoadedAgentGuardsAgainstTraining(t *testing.T) {
	sys := testbedSystem(3, 9)
	tr, err := NewTrainer(sys, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "agent.json")
	if err := tr.Agent().Save(path); err != nil {
		t.Fatal(err)
	}
	agent, err := LoadAgent(path)
	if err != nil {
		t.Fatal(err)
	}
	drifted := &fl.System{Devices: sys.Devices, Traces: make([]*trace.Trace, len(sys.Traces)), Tau: sys.Tau, ModelBytes: sys.ModelBytes, Lambda: sys.Lambda}
	for i, tc := range sys.Traces {
		samples := make([]float64, len(tc.Samples))
		for j, v := range tc.Samples {
			samples[j] = 8 * v
		}
		if drifted.Traces[i], err = trace.New(tc.Name, tc.Interval, samples); err != nil {
			t.Fatal(err)
		}
	}
	g, err := agent.GuardedScheduler(drifted, guard.Config{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(drifted, g, 0, 3*guard.DefaultOODWindow); err != nil {
		t.Fatal(err)
	}
	if n := g.Audit().EventCounts()["ood:open"]; n == 0 {
		t.Fatalf("the OOD gate never opened on a ×8 bandwidth drift; events %v", g.Audit().EventCounts())
	}
}
