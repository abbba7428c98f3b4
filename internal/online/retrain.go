package online

import (
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/guard/chaos"
	"repro/internal/rl"
	"repro/internal/tensor"
)

// Report documents one retrain: the fine-tune's loss trajectory, the
// candidate checkpoint, the shadow-evaluation verdict against the current
// champion on the fixed probe set, and whether the candidate was
// promoted.
type Report struct {
	// Retrain is the 1-based retrain ordinal within the loop's lifetime.
	Retrain int
	// Samples is the replay-buffer size the candidate trained on.
	Samples int
	// Epochs is the number of full-batch imitation steps taken.
	Epochs int
	// NLLFirst/NLLLast bracket the behavior-cloning loss (before the
	// first and last step respectively).
	NLLFirst, NLLLast float64
	// CheckpointPath is the atomically written candidate file ("" when
	// checkpointing is disabled).
	CheckpointPath string
	// CurrentCost/CandidateCost are summed guarded probe costs;
	// CurrentTrips/CandidateTrips the summed breaker trips.
	CurrentCost, CandidateCost   float64
	CurrentTrips, CandidateTrips int
	// Promoted reports whether the candidate replaced the champion.
	Promoted bool
}

// retrain fine-tunes a candidate on the replay buffer, checkpoints it,
// shadow-evaluates both agents on the fixed probe set and promotes the
// candidate only when it regresses on neither guarded cost nor trips.
func (l *Loop) retrain() (*Report, error) {
	l.retrains++
	items := l.buf.Items()
	rep := &Report{Retrain: l.retrains, Samples: len(items), Epochs: l.cfg.Epochs}

	actor := l.agent.Policy.(*rl.GaussianPolicy).Clone()
	candidate := l.agent.WithPolicy(actor)
	S := tensor.NewMatrix(len(items), actor.StateDim())
	A := tensor.NewMatrix(len(items), actor.ActionDim())
	for i, t := range items {
		if len(t.State) != actor.StateDim() || len(t.Action) != actor.ActionDim() {
			return rep, fmt.Errorf("online: transition %d dims (%d,%d) do not match policy (%d,%d)",
				i, len(t.State), len(t.Action), actor.StateDim(), actor.ActionDim())
		}
		copy(S.Data[i*S.Cols:], t.State)
		copy(A.Data[i*A.Cols:], t.Action)
	}
	im, err := rl.NewImitator(actor, candidate.Critic, l.cfg.LR, l.cfg.MaxGradNorm, l.cfg.Workers)
	if err != nil {
		return rep, err
	}
	for e := 0; e < l.cfg.Epochs; e++ {
		nll, err := im.Step(S, A)
		if err != nil {
			return rep, fmt.Errorf("online: retrain %d epoch %d: %w", l.retrains, e, err)
		}
		if e == 0 {
			rep.NLLFirst = nll
		}
		rep.NLLLast = nll
	}

	if l.cfg.CheckpointDir != "" {
		path, err := writeCandidate(l.cfg.CheckpointDir, l.retrains, candidate)
		if err != nil {
			return rep, err
		}
		rep.CheckpointPath = path
	}

	curCost, curTrips, err := l.probe(l.agent)
	if err != nil {
		return rep, fmt.Errorf("online: probe current: %w", err)
	}
	candCost, candTrips, err := l.probe(candidate)
	if err != nil {
		return rep, fmt.Errorf("online: probe candidate: %w", err)
	}
	rep.CurrentCost, rep.CurrentTrips = curCost, curTrips
	rep.CandidateCost, rep.CandidateTrips = candCost, candTrips

	if candCost <= curCost && candTrips <= curTrips {
		rep.Promoted = true
		l.promotions++
		l.agent = candidate
		if l.cfg.OnPromote != nil {
			if err := l.cfg.OnPromote(candidate); err != nil {
				return rep, fmt.Errorf("online: promote hook: %w", err)
			}
		}
	}
	return rep, nil
}

// probe shadow-evaluates an agent through the chaos harness on the fixed
// probe set, returning summed guarded cost and breaker trips.
func (l *Loop) probe(a *core.Agent) (cost float64, trips int, err error) {
	opts := chaos.Options{
		Iters:    l.cfg.ProbeIters,
		Seed:     l.cfg.ProbeSeed,
		Guard:    l.cfg.Guard,
		Fallback: l.cfg.Fallback,
	}
	results, err := chaos.RunAll(l.sys, a, l.cfg.ProbeClasses, opts, l.cfg.Workers)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range results {
		cost += r.GuardedCost
		trips += r.Trips
	}
	return cost, trips, nil
}

// writeCandidate persists a candidate agent crash-safely (Agent.Save) as
// candidate-<ordinal>.json in dir, creating dir if needed.
func writeCandidate(dir string, ordinal int, a *core.Agent) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("candidate-%04d.json", ordinal))
	if err := a.Save(path); err != nil {
		return "", fmt.Errorf("online: write candidate: %w", err)
	}
	return path, nil
}
