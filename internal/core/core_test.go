package core

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/device"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

func testbedSystem(n int, seed int64) *fl.System {
	devs := device.MustNewFleet(n, device.FleetParams{}, seed)
	p := bandwidth.Walking4G()
	traces := make([]*trace.Trace, n)
	for i := range traces {
		traces[i] = p.MustGenerate("w", 2000, seed+int64(i)*101)
	}
	return &fl.System{Devices: devs, Traces: traces, Tau: 1, ModelBytes: 25e6, Lambda: 1}
}

// fastConfig keeps training light enough for unit tests.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Hidden = []int{16}
	cfg.BufferSize = 64
	cfg.Episodes = 4
	cfg.Env.EpisodeLen = 16
	cfg.PPO.Epochs = 3
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	muts := map[string]func(*Config){
		"env":     func(c *Config) { c.Env.SlotSec = 0 },
		"ppo":     func(c *Config) { c.PPO.Gamma = 2 },
		"hidden":  func(c *Config) { c.Hidden = nil },
		"width":   func(c *Config) { c.Hidden = []int{0} },
		"std":     func(c *Config) { c.InitStd = 0 },
		"buffer":  func(c *Config) { c.BufferSize = 0 },
		"episode": func(c *Config) { c.Episodes = 0 },
	}
	for name, mut := range muts {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNewTrainerValidation(t *testing.T) {
	sys := testbedSystem(2, 1)
	bad := fastConfig()
	bad.BufferSize = 0
	if _, err := NewTrainer(sys, bad); err == nil {
		t.Fatal("bad config accepted")
	}
	sys.Tau = 0
	if _, err := NewTrainer(sys, fastConfig()); err == nil {
		t.Fatal("bad system accepted")
	}
}

func TestTrainerRunsAndUpdates(t *testing.T) {
	sys := testbedSystem(2, 2)
	tr, err := NewTrainer(sys, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	eps, err := tr.Run(func(EpisodeStats) { seen++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 4 || seen != 4 {
		t.Fatalf("episodes = %d, callbacks = %d", len(eps), seen)
	}
	// 4 episodes × 16 steps = 64 = one buffer fill ⇒ ≥ 1 update.
	if eps[len(eps)-1].Updates < 1 {
		t.Fatal("no PPO update happened")
	}
	for _, e := range eps {
		if math.IsNaN(e.AvgCost) || e.AvgCost <= 0 {
			t.Fatalf("episode cost %v", e.AvgCost)
		}
		if math.Abs(e.AvgReward) == 0 {
			t.Fatal("reward identically zero")
		}
	}
	if tr.Env() == nil {
		t.Fatal("Env() nil")
	}
}

func TestTrainingImprovesCost(t *testing.T) {
	// End-to-end: on the 3-device walking scenario, the average episode
	// cost after training should be materially below the initial episodes
	// (the Fig. 6(b) trend), and the trained agent should beat the Random
	// scheduler online.
	sys := testbedSystem(3, 3)
	cfg := fastConfig()
	cfg.Episodes = 60
	cfg.Env.EpisodeLen = 20
	cfg.Hidden = []int{32}
	cfg.Seed = 7
	tr, err := NewTrainer(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var early, late []float64
	for _, e := range eps[:10] {
		early = append(early, e.AvgCost)
	}
	for _, e := range eps[len(eps)-10:] {
		late = append(late, e.AvgCost)
	}
	me, ml := stats.Mean(early), stats.Mean(late)
	if ml > me {
		t.Fatalf("training made things worse: %v → %v", me, ml)
	}
}

func TestAgentSaveLoadRoundTrip(t *testing.T) {
	sys := testbedSystem(2, 4)
	tr, err := NewTrainer(sys, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RunEpisode(0); err != nil {
		t.Fatal(err)
	}
	agent := tr.Agent()
	path := t.TempDir() + "/agent.json"
	if err := agent.Save(path); err != nil {
		t.Fatal(err)
	}
	// The crash-safe write leaves no staging file beside the agent.
	if names := dirNames(t, filepath.Dir(path)); len(names) != 1 || names[0] != "agent.json" {
		t.Fatalf("directory after Save holds %v, want only agent.json", names)
	}
	back, err := LoadAgent(path)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded policy must act identically.
	s1, err := agent.Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := back.Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	ctx := sched.Context{Sys: sys, Clock: 77}
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
			t.Fatalf("loaded agent decides differently: %v vs %v", f1, f2)
		}
	}
	if back.EnvCfg.History != agent.EnvCfg.History {
		t.Fatal("env config lost in round trip")
	}
}

func TestLoadAgentErrors(t *testing.T) {
	if _, err := LoadAgent("/nonexistent/agent.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := decodeAgent([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	// A malformed or non-finite weight is rejected with an error naming
	// the network it belongs to, and LoadAgent's names the file too. A NaN
	// weight cannot be saved at all: JSON has no number for it.
	sys := testbedSystem(3, 4)
	for _, c := range []struct {
		network, other string
		net            func(*agentFile) *nn.MLPState
	}{
		{"policy network", "critic", func(f *agentFile) *nn.MLPState { return &f.Actor.Net }},
		{"critic", "policy network", func(f *agentFile) *nn.MLPState { return &f.Critic }},
	} {
		tr, err := NewTrainer(sys, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		f := agentFileOf(t, tr.Agent())
		w := c.net(f).W
		w[0] = w[0][1:]
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "short.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = LoadAgent(path)
		if err == nil {
			t.Fatalf("agent with a short %s layer accepted", c.network)
		}
		if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, c.network) || strings.Contains(msg, c.other) {
			t.Fatalf("short %s layer: error %q does not name the file and the network", c.network, msg)
		}
		w[0] = append(w[0], math.NaN())
		_, err = f.agent()
		if err == nil {
			t.Fatalf("agent with a NaN %s weight accepted", c.network)
		}
		if msg := err.Error(); !strings.Contains(msg, c.network) || strings.Contains(msg, c.other) || !strings.Contains(msg, "NaN") {
			t.Fatalf("NaN %s weight: error %q does not name the network", c.network, msg)
		}
	}
	tr, err := NewTrainer(sys, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	agent := tr.Agent()
	agent.Critic.Layers[0].W.Data[0] = math.NaN()
	if err := agent.Save(filepath.Join(t.TempDir(), "nan.json")); err == nil {
		t.Fatal("agent with a NaN critic weight saved")
	}
}

// dirNames lists the names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestEvaluatePaired(t *testing.T) {
	sys := testbedSystem(3, 5)
	h, err := sched.NewHeuristic([]float64{3e6, 3e6, 3e6}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewStatic(sys, []float64{3e6, 3e6, 3e6}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Evaluate(sys, []sched.Scheduler{sched.MaxFreq{}, h, st}, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if len(r.Iterations) != 30 {
			t.Fatalf("%s: %d iterations", r.Name, len(r.Iterations))
		}
		if r.MeanCost <= 0 || r.MeanTime <= 0 || r.MeanEnergy <= 0 {
			t.Fatalf("%s: non-positive means %+v", r.Name, r)
		}
		if r.CostCDF.At(math.Inf(1)) != 1 {
			t.Fatalf("%s: CDF malformed", r.Name)
		}
		// Internal consistency: mean cost = mean time + λ·mean total energy.
		var te float64
		for _, it := range r.Iterations {
			te += it.TotalEnergy()
		}
		te /= float64(len(r.Iterations))
		if math.Abs(r.MeanCost-(r.MeanTime+sys.Lambda*te)) > 1e-9 {
			t.Fatalf("%s: cost decomposition broken", r.Name)
		}
	}
	// MaxFreq must have the highest energy.
	byName := map[string]EvalResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	mf, hr := byName["maxfreq"], byName["heuristic"]
	if mf.MeanEnergy <= hr.MeanEnergy {
		t.Fatalf("maxfreq energy %v ≤ heuristic %v", mf.MeanEnergy, hr.MeanEnergy)
	}
	if _, err := Evaluate(sys, nil, 0, 10); err == nil {
		t.Fatal("empty scheduler list accepted")
	}
	if _, err := Evaluate(sys, []sched.Scheduler{sched.MaxFreq{}}, 0, 0); err == nil {
		t.Fatal("zero iterations accepted")
	}
}

func TestTrainedAgentSchedulesFeasibly(t *testing.T) {
	sys := testbedSystem(3, 6)
	cfg := fastConfig()
	cfg.Episodes = 6
	tr, err := NewTrainer(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(nil); err != nil {
		t.Fatal(err)
	}
	drl, err := tr.Agent().Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	its, err := sched.Run(sys, drl, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range its {
		for i, d := range it.Devices {
			if d.FreqHz <= 0 || d.FreqHz > sys.Devices[i].MaxFreqHz+1 {
				t.Fatalf("infeasible frequency %v", d.FreqHz)
			}
		}
	}
}
