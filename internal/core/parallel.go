package core

import (
	"fmt"
	"math/rand"

	"repro/internal/env"
	"repro/internal/nn"
	"repro/internal/rl"
)

// waveSize is the number of episodes collected per parallel wave. It is a
// fixed constant — never derived from the worker count — because the
// sampling parameters are snapshotted once per wave: with a fixed wave
// boundary the collected experience depends only on (seed, episode index,
// wave-start parameters), so any worker count produces bit-identical
// training output.
const waveSize = 8

// episodeSeed derives the private RNG seed of one episode from the run seed
// via a splitmix64-style mix, so episodes are decorrelated but fully
// determined by (seed, episode).
func episodeSeed(seed int64, episode int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(episode+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// runParallel is the Workers ≥ 1 training loop: episodes are collected in
// fixed-size waves on the job pool, then merged into the shared experience
// buffer strictly in episode order, replaying the buffer-full PPO updates
// of Algorithm 1 during the merge. Sampling uses the actor/critic/
// normalizer of the wave boundary, which makes the scheme slightly
// off-policy (up to one wave of update lag) but worker-count invariant:
// runs with Workers=1 and Workers=N are bit-identical under the same seed.
func (t *Trainer) runParallel(progress func(EpisodeStats)) ([]EpisodeStats, error) {
	// Resume keeps the absolute wave grid: RestoreCheckpoint only accepts
	// wave-aligned episodes in parallel mode, so starting the loop at
	// nextEpisode reproduces the same wave boundaries as an uninterrupted
	// run.
	for start := t.nextEpisode; start < t.Cfg.Episodes; start += waveSize {
		if t.stop.Load() {
			return t.statsCopy(), ErrInterrupted
		}
		count := min(t.Cfg.Episodes-start, waveSize)
		// Nothing writes the networks until the wave is merged, so every
		// episode samples from its own clones of the wave-start state:
		// forward passes mutate scratch caches.
		cp := t.constrainedPPO()
		trajs, err := rl.CollectEpisodes(start, count, t.Cfg.Workers, func(ep int) (*rl.Trajectory, error) {
			var costCritic *nn.MLP
			if cp != nil {
				costCritic = cp.CostCritic.Clone()
			}
			var norm *rl.ObsNormalizer
			if t.norm != nil {
				norm = t.norm.Clone()
			}
			return t.collectEpisode(ep, t.actor.ClonePolicy(), t.critic.Clone(), costCritic, norm)
		})
		if err != nil {
			return t.statsCopy(), fmt.Errorf("core: parallel rollout: %w", err)
		}
		for _, tr := range trajs {
			st, err := t.absorb(tr)
			if err != nil {
				return t.statsCopy(), fmt.Errorf("core: episode %d: %w", tr.Episode, err)
			}
			t.stats = append(t.stats, st)
			if progress != nil {
				progress(st)
			}
		}
		t.nextEpisode = start + count
		if err := t.autoCheckpoint(); err != nil {
			return t.statsCopy(), err
		}
	}
	return t.statsCopy(), nil
}

// collectEpisode rolls out one episode against a private environment whose
// RNG is derived from (run seed, episode index), sampling from the given
// wave-start actor/critic/normalizer clones. It is safe to call from
// concurrent jobs as long as each passes its own clones; the shared
// fl.System is read-only during simulation.
func (t *Trainer) collectEpisode(episode int, actor rl.Policy, critic, costCritic *nn.MLP, norm *rl.ObsNormalizer) (*rl.Trajectory, error) {
	rng := rand.New(rand.NewSource(episodeSeed(t.Cfg.Seed, episode)))
	e, err := env.New(t.Sys, t.Cfg.Env, rng)
	if err != nil {
		return nil, err
	}
	state, err := e.Reset()
	if err != nil {
		return nil, err
	}
	tr := &rl.Trajectory{Episode: episode}
	if norm != nil {
		tr.RawStates = append(tr.RawStates, state.Clone())
		state = norm.Normalize(state) // wave-frozen statistics; no Update
	}
	for {
		action, logp := actor.Sample(state, rng)
		value := critic.Forward(state)[0]
		var costValue rl.CostVec
		if costCritic != nil {
			copy(costValue[:], costCritic.Forward(state))
		}
		// Capture s_k before StepInto overwrites the environment's state
		// scratch; the trajectory retains the transition anyway.
		stored := state.Clone()
		res, err := e.StepInto(action)
		if err != nil {
			return nil, err
		}
		tr.Steps = append(tr.Steps, rl.Transition{
			State:     stored,
			Action:    action.Clone(),
			Reward:    res.Reward,
			LogProb:   logp,
			Value:     value,
			Done:      res.Done,
			Cost:      rl.CostVec(res.Costs),
			CostValue: costValue,
		})
		tr.CostSum += res.Iter.Cost
		tr.RewardSum += res.Reward
		state = res.State
		if norm != nil {
			tr.RawStates = append(tr.RawStates, state.Clone())
			state = norm.Normalize(state)
		}
		if res.Done {
			tr.FinalState = state.Clone()
			return tr, nil
		}
	}
}

// absorb merges one collected trajectory into the shared buffer, replaying
// Algorithm 1's buffer-full updates (lines 17–23, Trainer.update) exactly
// as the sequential loop would, bootstrapping from the transition after the
// fill point under the current critic. Running observation statistics are
// replayed in state-visit order.
func (t *Trainer) absorb(tr *rl.Trajectory) (EpisodeStats, error) {
	if t.norm != nil {
		for _, raw := range tr.RawStates {
			t.norm.Update(raw)
		}
	}
	for i, step := range tr.Steps {
		t.buffer.Add(step)
		if !t.buffer.Full() {
			continue
		}
		next := tr.FinalState
		if i+1 < len(tr.Steps) {
			next = tr.Steps[i+1].State
		}
		if err := t.update(next, step.Done); err != nil {
			return EpisodeStats{}, err
		}
	}
	steps := float64(len(tr.Steps))
	return EpisodeStats{
		Episode:   tr.Episode,
		AvgCost:   tr.CostSum / steps,
		AvgReward: tr.RewardSum / steps,
		Loss:      t.lastLoss,
		Updates:   t.updates,
	}, nil
}
