package core

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/tensor"
)

// FuzzUnmarshalAgent drives the agent decoder (the path of flserver -agent
// and flsim -agent through LoadAgent) with arbitrary bytes, seeded with
// freshly built joint and shared agents. Invariants: decoding never panics,
// and a decoded agent's policy evaluates a zero state without panicking.
func FuzzUnmarshalAgent(f *testing.F) {
	// Small networks keep the seeds short, which the mutator and the
	// minimizer both work through byte by byte.
	rng := rand.New(rand.NewSource(1))
	critic := nn.NewMLP([]int{2, 1}, nn.Tanh, nn.Identity, rng)
	for _, a := range []*Agent{
		{Policy: rl.NewGaussianPolicy(2, 1, []int{2}, 0.5, rng), Critic: critic},
		{Policy: rl.NewSharedGaussianPolicy(2, 1, nil, 0.5, rng), Critic: critic,
			Norm: &rl.ObsNormalizer{Mean: make([]float64, 2), M2: make([]float64, 2), Count: 1, Clip: 5}},
	} {
		data, err := a.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a Agent
		if err := a.UnmarshalBinary(data); err != nil {
			return
		}
		a.Policy.Mean(make(tensor.Vector, a.Policy.StateDim()))
	})
}

// FuzzLoadCheckpoint drives the checkpoint loader (the path of fltrain
// -resume through ResumeTrainer) with arbitrary bytes: LoadCheckpoint, then
// RestoreCheckpoint into a fresh small trainer. It is seeded with a real
// checkpoint of that trainer and with copies whose RNG position is on
// another seed or out of reach. Invariants: no panic, no hang (the RNG
// replay is bounded), and every error names the package.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := fastConfig()
	cfg.Hidden = []int{2}
	cfg.BufferSize = 4
	cfg.Env.EpisodeLen = 3
	cfg.Env.History = 1
	cfg.PPO.Epochs = 1
	sys := testbedSystem(1, 7)
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
		f.Fatal("the seed checkpoint does not restore into a fresh trainer")
	}
	for _, mut := range []func(*Checkpoint){
		func(*Checkpoint) {},
		func(ck *Checkpoint) { ck.RNG.Seed = 999 },
		func(ck *Checkpoint) { ck.RNG.Draws = math.MaxUint64 },
	} {
		c := *ck
		mut(&c)
		data, err := json.Marshal(&c)
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
		if err == nil {
			tr, nerr := NewTrainer(sys, cfg)
			if nerr != nil {
				t.Fatal(nerr)
			}
			err = tr.RestoreCheckpoint(ck)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "core: ") {
			t.Fatalf("error without context: %v", err)
		}
	})
}
