package core

import (
	"repro/internal/fl"
	"repro/internal/guard"
	"repro/internal/sched"
)

// GuardedScheduler wraps a private copy of the agent's actor in the layered
// safety pipeline of internal/guard — the guarded online evaluation mode.
// The guard rebuilds states with the agent's environment layout, and its OOD
// layer scores them against the agent's reference (its training
// distribution). fallback is a guard.ChainFromSpec spec ("" →
// heuristic,maxfreq).
func (a *Agent) GuardedScheduler(sys *fl.System, gcfg guard.Config, fallback string) (*guard.Guard, error) {
	drl, err := a.Scheduler()
	if err != nil {
		return nil, err
	}
	gcfg.Env, gcfg.Ref = a.EnvCfg, a.Ref
	chain, err := guard.ChainFromSpec(sys, fallback, a.EnvCfg.MinFreqFrac)
	if err != nil {
		return nil, err
	}
	return guard.New(drl, gcfg, chain...)
}

// ensure the guard satisfies the interfaces the evaluation loop relies on.
var (
	_ sched.Scheduler = (*guard.Guard)(nil)
	_ sched.Observer  = (*guard.Guard)(nil)
)
