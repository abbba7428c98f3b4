package env

import (
	"math/rand"
	"testing"

	"repro/internal/fl"
	"repro/internal/tensor"
)

// TestStepIntoMatchesStep pins the zero-allocation path to an allocating
// step written out here from the public pieces: MapAction, the recording
// Session.Step, the freshly built State and fl.Reward. Over a whole episode
// with varying actions, StepInto must produce bit-identical states,
// rewards, costs and iteration stats — the only differences are buffer
// ownership and the missing history record.
func TestStepIntoMatchesStep(t *testing.T) {
	mk := func() *Env {
		e, err := New(benchSystem(5), DefaultConfig(), rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ea, eb := mk(), mk()
	sa, err := ea.ResetAtFaults(123.4, 0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := eb.ResetAtFaults(123.4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	action := tensor.NewVector(ea.ActionDim())
	for k := 0; k < ea.Cfg.EpisodeLen; k++ {
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("step %d: state[%d] %v vs %v", k, i, sa[i], sb[i])
			}
		}
		for i := range action {
			action[i] = rng.Float64()*2 - 1
		}
		freqs, err := MapActionInto(nil, ea.Sys, action, ea.Cfg.MinFreqFrac)
		if err != nil {
			t.Fatal(err)
		}
		it, err := ea.Session().Step(freqs)
		if err != nil {
			t.Fatal(err)
		}
		ra := StepResult{
			State:  ea.State(),
			Reward: fl.Reward(it) / ea.Cfg.RewardScale,
			Done:   k+1 >= ea.Cfg.EpisodeLen,
			Costs:  ea.Cfg.ConstraintCosts(it),
			Iter:   it,
		}
		rb, err := eb.StepInto(action)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Reward != rb.Reward || ra.Done != rb.Done || ra.Costs != rb.Costs {
			t.Fatalf("step %d: reward/done/costs %v/%v/%v vs %v/%v/%v", k,
				ra.Reward, ra.Done, ra.Costs, rb.Reward, rb.Done, rb.Costs)
		}
		if ra.Iter.Cost != rb.Iter.Cost || ra.Iter.Duration != rb.Iter.Duration ||
			ra.Iter.ComputeEnergy != rb.Iter.ComputeEnergy || ra.Iter.TxEnergy != rb.Iter.TxEnergy {
			t.Fatalf("step %d: iteration stats diverge: %+v vs %+v", k, ra.Iter, rb.Iter)
		}
		for i := range ra.Iter.Devices {
			if ra.Iter.Devices[i] != rb.Iter.Devices[i] {
				t.Fatalf("step %d device %d: %+v vs %+v", k, i, ra.Iter.Devices[i], rb.Iter.Devices[i])
			}
		}
		if ea.Clock() != eb.Clock() {
			t.Fatalf("step %d: clocks diverge: %v vs %v", k, ea.Clock(), eb.Clock())
		}
		sa, sb = ra.State, rb.State
	}
	if eb.Session().K() != ea.Session().K() {
		t.Fatalf("K diverges: %d vs %d", eb.Session().K(), ea.Session().K())
	}
	if len(ea.Session().History) != ea.Cfg.EpisodeLen {
		t.Fatalf("Session.Step recorded %d history entries, want %d", len(ea.Session().History), ea.Cfg.EpisodeLen)
	}
	if len(eb.Session().History) != 0 {
		t.Fatalf("StepInto recorded %d history entries", len(eb.Session().History))
	}
}
