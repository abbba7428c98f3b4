package online_test

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/fl"
	"repro/internal/guard"
	"repro/internal/guard/chaos"
	"repro/internal/online"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// fixture trains one small agent once (read-only afterwards; every
// consumer clones the policy before mutating).
var fixture struct {
	once  sync.Once
	sys   *fl.System
	agent *core.Agent
	err   error
}

func testbed(t *testing.T) (*fl.System, *core.Agent) {
	t.Helper()
	fixture.once.Do(func() {
		devs, err := device.NewFleet(3, device.FleetParams{}, 7)
		if err != nil {
			fixture.err = err
			return
		}
		p := bandwidth.Walking4G()
		traces := make([]*trace.Trace, len(devs))
		for i := range traces {
			traces[i], err = p.Generate("w", 1600, 7+int64(i)*31)
			if err != nil {
				fixture.err = err
				return
			}
		}
		sys := &fl.System{Devices: devs, Traces: traces, Tau: 1, ModelBytes: 25e6, Lambda: 1}
		cfg := core.DefaultConfig()
		cfg.Hidden = []int{24, 24}
		cfg.Episodes = 30
		cfg.BufferSize = 128
		cfg.Seed = 7
		cfg.NormalizeObs = true
		tr, err := core.NewTrainer(sys, cfg)
		if err != nil {
			fixture.err = err
			return
		}
		if _, err := tr.Run(nil); err != nil {
			fixture.err = err
			return
		}
		fixture.sys = sys
		fixture.agent = tr.Agent()
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.sys, fixture.agent
}

func TestBufferFIFO(t *testing.T) {
	b := online.NewBuffer(3)
	for i := 0; i < 5; i++ {
		b.Add(online.Transition{Iter: i})
	}
	if b.Len() != 3 || b.Total() != 5 || b.Dropped() != 2 {
		t.Fatalf("len=%d total=%d dropped=%d", b.Len(), b.Total(), b.Dropped())
	}
	for i, tr := range b.Items() {
		if tr.Iter != i+2 {
			t.Fatalf("item %d has iter %d, want %d (oldest-first eviction)", i, tr.Iter, i+2)
		}
	}
}

func TestDriftGateHysteresis(t *testing.T) {
	g := guard.NewHysteresis(4, 0.5, 2)
	if ev := g.Observe(10); ev != "open" {
		t.Fatalf("high score: %q, want open", ev)
	}
	// NaN (unscorable) must not advance or flap the window.
	if ev := g.Observe(math.NaN()); ev != "" || !g.Open() {
		t.Fatal("NaN score moved the gate")
	}
	// Window mean (10+3)/2 = 6.5 > 2: still open.
	if ev := g.Observe(3); ev != "" || !g.Open() {
		t.Fatal("gate closed above the hysteresis band")
	}
	// Window mean (3+0)/2 = 1.5 < 0.5·4: closes.
	if ev := g.Observe(0); ev != "close" || g.Open() {
		t.Fatal("gate failed to close below hysteresis")
	}
}

func TestUnmapPlanInvertsMapAction(t *testing.T) {
	sys, _ := testbed(t)
	a := tensor.Vector{-1, 0.25, 1}
	plan, err := env.MapActionInto(nil, sys, a, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	back, err := online.UnmapPlan(sys, plan, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(back[i]-a[i]) > 1e-12 {
			t.Fatalf("component %d: unmapped %v, want %v", i, back[i], a[i])
		}
	}
	if _, err := online.UnmapPlan(sys, []float64{1, 1, 1}, 0.05); err == nil {
		t.Fatal("accepted a plan below the frequency floor")
	}
}

// serveDriftedLog runs a guarded session with plan recording on a
// unit-scale-corrupted copy of the system (massive OOD drift) and returns
// the mutated system and the rendered audit log.
func serveDriftedLog(t *testing.T, iters int) (*fl.System, string) {
	t.Helper()
	sys, agent := testbed(t)
	var scale chaos.Class
	for _, c := range chaos.Classes() {
		if c.Name == "scale" {
			scale = c
		}
	}
	mutated, err := scale.Mutate(sys, 31)
	if err != nil {
		t.Fatal(err)
	}
	g, err := agent.GuardedScheduler(mutated, guard.Config{RecordPlans: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(mutated, g, 65, iters); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, line := range g.Audit().Lines() {
		sb.WriteString(line + "\n")
	}
	return mutated, sb.String()
}

// TestReplayerRebuildsServedDecisions: every plan-bearing line of a real
// audit log replays into a transition whose action maps back onto the
// served plan and whose state matches a fresh BuildState at the decision
// clock.
func TestReplayerRebuildsServedDecisions(t *testing.T) {
	_, agent := testbed(t)
	mutated, log := serveDriftedLog(t, 30)
	rep, err := online.NewReplayer(mutated, agent.EnvCfg, agent.Norm)
	if err != nil {
		t.Fatal(err)
	}
	decs := guard.ParseLines(log)
	if len(decs) != 30 {
		t.Fatalf("parsed %d decisions, want 30", len(decs))
	}
	replayed := 0
	for _, d := range decs {
		tr, err := rep.Transition(d)
		if err != nil {
			continue
		}
		replayed++
		plan, merr := env.MapActionInto(nil, mutated, tr.Action, agent.EnvCfg.MinFreqFrac)
		if merr != nil {
			t.Fatal(merr)
		}
		for i := range plan {
			if math.Abs(plan[i]-d.Plan[i]) > 1e-6*d.Plan[i] {
				t.Fatalf("k=%d device %d: action maps to %v, served plan was %v", d.Iter, i, plan[i], d.Plan[i])
			}
		}
		raw, _ := env.BuildStateInto(nil, nil, mutated, d.Clock, agent.EnvCfg)
		agent.Norm.NormalizeInto(raw, raw)
		if !reflect.DeepEqual(raw, tr.State) {
			t.Fatalf("k=%d: replayed state differs from rebuilt state", d.Iter)
		}
		if tr.Layer == "" {
			t.Fatalf("k=%d: transition lost its serving layer", d.Iter)
		}
	}
	if replayed == 0 {
		t.Fatal("no decision replayed")
	}
}

func loopConfig(dir string) online.Config {
	return online.Config{
		BufferCap:  128,
		MinSamples: 20,
		Cooldown:   40,
		Epochs:     5,
		ProbeIters: 8,
		ProbeSeed:  31,
		// Probe on two cheap classes; the full set is exercised by the
		// chaos suite itself.
		ProbeClasses:  chaos.Classes()[:2],
		CheckpointDir: dir,
	}
}

// TestLoopRetrainDeterministic: feeding the same audit log to two fresh
// loops produces identical retrain reports and byte-identical candidate
// checkpoints — the promotion decision is a pure function of (agent, log).
func TestLoopRetrainDeterministic(t *testing.T) {
	_, agent := testbed(t)
	mutated, log := serveDriftedLog(t, 70)
	run := func(dir string) []*online.Report {
		loop, err := online.NewLoop(mutated, agent, loopConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		reports, err := loop.ProcessLog(log)
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	d1, d2 := t.TempDir(), t.TempDir()
	r1 := run(d1)
	r2 := run(d2)
	if len(r1) == 0 {
		t.Fatal("drifted log triggered no retrain")
	}
	for i := range r1 {
		a, b := *r1[i], *r2[i]
		a.CheckpointPath, b.CheckpointPath = "", ""
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("retrain %d reports differ:\n%+v\n%+v", i, a, b)
		}
		c1, err := os.ReadFile(r1[i].CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := os.ReadFile(r2[i].CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(c1) != string(c2) {
			t.Fatalf("retrain %d candidate checkpoints differ", i)
		}
		if r1[i].NLLLast >= r1[i].NLLFirst {
			t.Errorf("retrain %d: NLL did not improve (%v -> %v)", i, r1[i].NLLFirst, r1[i].NLLLast)
		}
		if filepath.Dir(r1[i].CheckpointPath) != d1 {
			t.Errorf("checkpoint %q outside requested dir", r1[i].CheckpointPath)
		}
	}
	// The crash-safe writes leave no staging files beside the candidates.
	entries, err := os.ReadDir(d1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(r1) {
		t.Fatalf("checkpoint dir holds %d files for %d retrains", len(entries), len(r1))
	}
}

// TestLoopRollbackOnRegression: a replay buffer full of stall plans
// trains a candidate that trips the guard's plan gate; the shadow
// evaluation must refuse to promote it and keep the champion.
func TestLoopRollbackOnRegression(t *testing.T) {
	sys, agent := testbed(t)
	cfg := loopConfig("")
	cfg.MinSamples = 24
	cfg.Cooldown = 200 // single retrain at the end of the feed
	cfg.Epochs = 60
	cfg.LR = 5e-2
	promoted := false
	cfg.OnPromote = func(*core.Agent) error { promoted = true; return nil }
	loop, err := online.NewLoop(sys, agent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Synthesize a drifted log whose expert served nothing but stall
	// plans at the frequency floor.
	floor := make([]float64, sys.N())
	for i, d := range sys.Devices {
		floor[i] = agent.EnvCfg.MinFreqFrac * d.MaxFreqHz
	}
	var report *online.Report
	for k := 0; k < 220 && report == nil; k++ {
		d := guard.Decision{
			Iter: k, Clock: 65 + float64(k)*10, Layer: "heuristic",
			Score: 12, Cost: math.NaN(),
			Plan: append([]float64(nil), floor...),
		}
		if report, err = loop.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	if report == nil {
		t.Fatal("stall-plan log triggered no retrain")
	}
	if report.Promoted || promoted {
		t.Fatalf("stall-trained candidate was promoted: %+v", report)
	}
	if loop.Agent() != agent {
		t.Fatal("champion changed despite rollback")
	}
	if !(report.CandidateTrips > report.CurrentTrips || report.CandidateCost > report.CurrentCost) {
		t.Fatalf("rollback without a measured regression: %+v", report)
	}
}

// TestLoopPromotesRecoveredAgent: a poisoned champion whose audit log
// records the fallback's healthy plans must be healed — the candidate
// clones the poisoned actor, imitates the healthy expert, beats the
// champion on the probe and is promoted through the hot-swap hook.
func TestLoopPromotesRecoveredAgent(t *testing.T) {
	sys, agent := testbed(t)
	poisoned, err := chaos.PoisonAgent(agent)
	if err != nil {
		t.Fatal(err)
	}
	// Serve the pristine system with the healthy agent, recording plans:
	// the "expert" log the poisoned champion will learn from.
	g, err := agent.GuardedScheduler(sys, guard.Config{RecordPlans: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(sys, g, 65, 60); err != nil {
		t.Fatal(err)
	}
	cfg := loopConfig(t.TempDir())
	cfg.MinSamples = 40
	cfg.Cooldown = 55
	cfg.Epochs = 80
	cfg.LR = 1e-2
	var swapped *core.Agent
	cfg.OnPromote = func(a *core.Agent) error { swapped = a; return nil }
	loop, err := online.NewLoop(sys, poisoned, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var report *online.Report
	for _, d := range g.Audit().Records() {
		d.Score = 12 // drive the loop's gate open; serving scores are clean here
		r, err := loop.Ingest(d)
		if err != nil {
			t.Fatal(err)
		}
		if r != nil {
			report = r
		}
	}
	if report == nil {
		t.Fatal("no retrain triggered")
	}
	if !report.Promoted {
		t.Fatalf("healed candidate not promoted: %+v", report)
	}
	if swapped == nil || loop.Agent() != swapped || loop.Agent() == poisoned {
		t.Fatal("promotion did not hot-swap the champion through OnPromote")
	}
	if !(report.CandidateTrips <= report.CurrentTrips && report.CandidateCost <= report.CurrentCost) {
		t.Fatalf("promotion without equal-or-better probe: %+v", report)
	}
}
