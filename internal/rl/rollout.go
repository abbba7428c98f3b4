package rl

import (
	"repro/internal/par"
	"repro/internal/tensor"
)

// Trajectory is one complete episode collected by a rollout job: the
// transitions in step order plus the bookkeeping the trainer needs to merge
// the episode into the shared experience buffer after the fact (bootstrap
// state, cost/reward sums, and — when observation normalization is on —
// the raw states in visit order so running statistics can be replayed
// deterministically).
type Trajectory struct {
	// Episode is the 0-based episode index the trajectory belongs to.
	Episode int
	// Steps holds the transitions in step order. State/Action slices are
	// owned by the trajectory.
	Steps []Transition
	// FinalState is the state observed after the last step (normalized
	// with the same statistics the episode sampled under, when
	// normalization is active). It bootstraps the value target when the
	// buffer fills on the episode's last transition.
	FinalState tensor.Vector
	// RawStates lists every unnormalized state in visit order (initial
	// state first, final state last; length len(Steps)+1). It is only
	// populated when the collector uses observation normalization.
	RawStates []tensor.Vector
	// CostSum and RewardSum accumulate the per-iteration system cost and
	// scaled reward over the episode.
	CostSum, RewardSum float64
}

// CollectEpisodes runs collect for the episode indices first … first+count-1
// as jobs of the pool (par.Run) at the given width and returns the
// trajectories ordered by episode index. As long as collect(ep) depends
// only on ep (per-episode seeding, its own clones of the wave-start
// networks), the returned slice — and everything merged from it — is
// independent of the width and of goroutine scheduling. On failure it
// returns the lowest failing episode's error, the serial loop's at any
// width, and no trajectories.
func CollectEpisodes(first, count, width int, collect func(episode int) (*Trajectory, error)) ([]*Trajectory, error) {
	if count <= 0 {
		return nil, nil
	}
	out := make([]*Trajectory, count)
	if err := par.Run(count, width, func(i int) (err error) {
		out[i], err = collect(first + i)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}
