package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// FuzzUnmarshalAgent drives the agent file decoder (the path of flserver
// -agent and flsim -agent through LoadAgent) with arbitrary bytes, seeded
// with the files of freshly built joint and shared agents, with and without
// normalizers, and of a 1-device shared agent under the shared tag that
// earlier versions wrote. Invariants: decoding never panics; an accepted
// agent has finite policy and critic weights and a finite log-σ, an env
// config that validates, a state length of ActionDim·(History+1), a
// normalizer that passes rl.NormalizerState.Validate at that length and a
// reference of that length with finite means and finite, positive
// deviations; its policy evaluates a zero state; and when the actor fits
// the fuzz system, a guarded scheduler builds and makes one decision.
func FuzzUnmarshalAgent(f *testing.F) {
	// Small networks keep the seeds short, which the mutator and the
	// minimizer both work through byte by byte.
	rng := rand.New(rand.NewSource(1))
	sys := testbedSystem(2, 11)
	joint := fileAgent(rl.NewGaussianPolicy(4, 2, []int{2}, 0.5, rng), nn.NewMLP([]int{4, 1}, nn.Tanh, nn.Identity, rng), 4)
	shared := fileAgent(rl.NewSharedGaussianPolicy(2, 2, nil, 0.5, rng), nn.NewMLP([]int{4, 1}, nn.Tanh, nn.Identity, rng), 4)
	shared.Norm = &rl.ObsNormalizer{Mean: make([]float64, 4), M2: make([]float64, 4), Count: 1, Clip: 5}
	shared3 := fileAgent(rl.NewSharedGaussianPolicy(3, 1, []int{2}, 0.5, rng), nn.NewMLP([]int{3, 1}, nn.Tanh, nn.Identity, rng), 3)
	shared3.Norm = &rl.ObsNormalizer{Mean: []float64{0.5, -1, 2}, M2: []float64{4, 0.25, 9}, Count: 7, Clip: 10}
	for _, a := range []*Agent{joint, shared, shared3} {
		data, err := encodeAgent(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	one := fileAgent(rl.NewSharedGaussianPolicy(1, 2, nil, 0.5, rng), nn.NewMLP([]int{2, 1}, nn.Tanh, nn.Identity, rng), 2)
	data, err := encodeAgent(one)
	if err != nil {
		f.Fatal(err)
	}
	tagged := bytes.Replace(data, []byte(`"arch":"gaussian"`), []byte(`"arch":"shared-gaussian","n":1`), 1)
	if bytes.Equal(tagged, data) {
		f.Fatal("the 1-device seed carries no joint tag to rewrite")
	}
	f.Add(tagged)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeAgent(data)
		if err != nil {
			return
		}
		policy := a.Policy.(*rl.GaussianPolicy)
		if !finiteParams(policy.Params()) || !finiteParams(a.Critic.Params()) {
			t.Fatal("accepted an agent with a non-finite weight or log-σ")
		}
		if err := a.EnvCfg.Validate(); err != nil {
			t.Fatalf("accepted an invalid env config: %v", err)
		}
		dim := a.Policy.StateDim()
		if dim != a.Policy.ActionDim()*(a.EnvCfg.History+1) {
			t.Fatalf("accepted a %d-dim state for %d actions at history %d", dim, a.Policy.ActionDim(), a.EnvCfg.History)
		}
		if a.Norm != nil {
			if err := a.Norm.Snapshot().Validate(); err != nil || a.Norm.Dim() != dim {
				t.Fatalf("accepted a %d-dim normalizer for a %d-dim state: %v", a.Norm.Dim(), dim, err)
			}
		}
		if err := a.Ref.Validate(dim); err != nil {
			t.Fatalf("accepted a reference that cannot score the state: %v", err)
		}
		a.Policy.Mean(make(tensor.Vector, dim))
		if a.Policy.ActionDim() != sys.N() {
			return
		}
		g, err := a.GuardedScheduler(sys, guard.Config{}, "")
		if err != nil {
			t.Fatalf("the guarded scheduler does not build: %v", err)
		}
		if _, err := g.Frequencies(sched.Context{Sys: sys, Clock: 45}); err != nil {
			t.Fatalf("the guarded scheduler fails its first decision: %v", err)
		}
	})
}

// FuzzLoadCheckpoint drives the checkpoint loader (the path of fltrain
// -resume through ResumeTrainer) with arbitrary bytes: LoadCheckpoint, then
// RestoreCheckpoint into a fresh small trainer of each kind: plain, with
// NormalizeObs, and constrained. It is seeded with a real checkpoint of
// each trainer and with copies of the plain one whose RNG position is on
// another seed or out of reach. Invariants: no panic, no hang (the RNG
// replay is bounded), every error names the package, a rejected checkpoint
// leaves the trainer unchanged, and an accepted one leaves a valid
// normalizer, finite parameters and non-negative second moments.
func FuzzLoadCheckpoint(f *testing.F) {
	plain := fastConfig()
	plain.Hidden = []int{2}
	plain.BufferSize = 4
	plain.Env.EpisodeLen = 3
	plain.Env.History = 1
	plain.PPO.Epochs = 1
	norm := plain
	norm.NormalizeObs = true
	constrained := plain
	constrained.PPO.Constraint = rl.DefaultConstraintConfig()
	cfgs := []Config{plain, norm, constrained}
	sys := testbedSystem(1, 7)
	checkpoint := func(cfg Config) *Checkpoint {
		tr, err := NewTrainer(sys, cfg)
		if err != nil {
			f.Fatal(err)
		}
		seen := 0
		if _, err := tr.Run(func(EpisodeStats) {
			if seen++; seen == 2 {
				tr.Stop()
			}
		}); !errors.Is(err, ErrInterrupted) {
			f.Fatalf("expected ErrInterrupted, got %v", err)
		}
		ck, err := tr.CaptureCheckpoint()
		if err != nil {
			f.Fatal(err)
		}
		if fresh, err := NewTrainer(sys, cfg); err != nil || fresh.RestoreCheckpoint(ck) != nil {
			f.Fatal("a seed checkpoint does not restore into a fresh trainer")
		}
		return ck
	}
	ck := checkpoint(plain)
	seeds := []*Checkpoint{ck}
	for _, mut := range []func(*Checkpoint){
		func(ck *Checkpoint) { ck.RNG.Seed = 999 },
		func(ck *Checkpoint) { ck.RNG.Draws = math.MaxUint64 },
	} {
		c := *ck
		mut(&c)
		seeds = append(seeds, &c)
	}
	seeds = append(seeds, checkpoint(norm), checkpoint(constrained))
	for _, ck := range seeds {
		data, err := json.Marshal(ck)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "core: ") {
				t.Fatalf("error without context: %v", err)
			}
			return
		}
		for _, cfg := range cfgs {
			tr, err := NewTrainer(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			before, err := tr.CaptureCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.RestoreCheckpoint(ck); err != nil {
				if !strings.HasPrefix(err.Error(), "core: ") {
					t.Fatalf("error without context: %v", err)
				}
				if after, cerr := tr.CaptureCheckpoint(); cerr != nil || !reflect.DeepEqual(before, after) {
					t.Fatalf("rejected checkpoint (%v) changed the trainer", err)
				}
			} else if err := rl.CaptureNormalizer(tr.norm).Validate(); err != nil {
				t.Fatalf("restored an invalid normalizer: %v", err)
			} else if err := checkRestoredNets(tr); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// finiteParams reports whether every weight of params is finite.
func finiteParams(params []nn.Param) bool {
	for _, p := range params {
		if !tensor.Vector(p.W).AllFinite() {
			return false
		}
	}
	return true
}

// checkRestoredNets reports a non-finite parameter or first moment, or a
// negative second moment, in a trainer's networks and optimizers.
func checkRestoredNets(tr *Trainer) error {
	ck, err := tr.CaptureCheckpoint()
	if err != nil {
		return err
	}
	nets := []nn.MLPState{ck.Actor.Net, ck.Critic}
	opts := []nn.AdamState{ck.ActorOpt, ck.CriticOpt}
	if ck.Constrained != nil {
		nets = append(nets, ck.Constrained.CostCritic)
		opts = append(opts, ck.Constrained.CostOpt)
	}
	if !tensor.Vector(ck.Actor.LogStd).AllFinite() {
		return errors.New("restored a non-finite log-σ")
	}
	for _, st := range nets {
		for i := range st.W {
			if !tensor.Vector(st.W[i]).AllFinite() || !tensor.Vector(st.B[i]).AllFinite() {
				return errors.New("restored a non-finite weight")
			}
		}
	}
	for _, st := range opts {
		for i := range st.M {
			if !tensor.Vector(st.M[i]).AllFinite() || !tensor.Vector(st.V[i]).AllFinite() {
				return errors.New("restored a non-finite optimizer moment")
			}
			for _, v := range st.V[i] {
				if v < 0 {
					return fmt.Errorf("restored a negative second moment %v", v)
				}
			}
		}
	}
	return nil
}
