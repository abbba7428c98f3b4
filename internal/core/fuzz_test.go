package core

import (
	"math/rand"
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
