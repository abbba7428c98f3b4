// Command fltrain runs the paper's Algorithm 1: offline DRL training of the
// CPU-frequency controller against a trace-driven federated-learning
// simulator. It prints the Fig. 6 convergence curves and saves the trained
// agent for online reasoning with flsim.
//
// Training is crash-safe: with -checkpoint set, periodic snapshots are
// written atomically, Ctrl-C stops at the next episode boundary and saves a
// final snapshot, and -resume continues a snapshot bit-identically to a run
// that was never interrupted. Device faults (crash/rejoin churn, upload
// blackouts, compute stragglers) can be injected into the training
// environment with the -crash-prob family of flags; crashes require a
// -deadline so rounds with missing devices still terminate.
//
// With -constrained, the trainer switches to the Lagrangian constrained
// PPO update: per-iteration deadline and energy-budget cost signals are
// measured against targets auto-calibrated from a run-at-max probe
// (-time-slack, -energy-frac), and projected-ascent Lagrange multipliers
// drive the batch-mean overshoot of each target under -cost-limit. The
// update keeps the shard engine's bit-identical worker invariance, and
// multiplier state rides in checkpoints, so interrupt/resume stays exact.
//
// Usage:
//
//	fltrain [-n 3] [-lambda 1] [-episodes 300] [-arch joint|shared]
//	        [-seed 1] [-workers 0] [-train-workers 0]
//	        [-constrained] [-cost-limit 0] [-time-slack 1.25] [-energy-frac 0.9]
//	        [-o agent.json] [-curves fig6.csv]
//	        [-checkpoint train.ckpt] [-checkpoint-every 25] [-resume train.ckpt]
//	        [-crash-prob 0] [-rejoin-prob 0] [-blackout-prob 0]
//	        [-straggler-prob 0] [-straggler-mult 4] [-deadline 0]
//	        [-retry-backoff 1]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace exec.trace]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/profiling"
	"repro/internal/server"
)

func main() {
	var (
		n            = flag.Int("n", 3, "number of mobile devices")
		lambda       = flag.Float64("lambda", 1, "cost weight λ (eq. 9)")
		episodes     = flag.Int("episodes", 300, "training episodes")
		arch         = flag.String("arch", "joint", "actor architecture: joint (paper) or shared (per-device weight sharing)")
		seed         = flag.Int64("seed", 1, "scenario and training seed")
		workers      = flag.Int("workers", 0, "rollout workers: 0 = sequential Algorithm 1; w>=1 = parallel episode collection (deterministic, output independent of w)")
		trainWorkers = flag.Int("train-workers", 0, "gradient-engine workers inside each PPO/A2C update (bit-identical at any value; 0 = single-threaded)")
		out          = flag.String("o", "agent.json", "output path for the trained agent file (JSON)")
		curves       = flag.String("curves", "", "optional CSV path for the Fig. 6 convergence curves")

		constrained = flag.Bool("constrained", false, "train with Lagrangian constrained PPO: deadline/energy targets auto-calibrated from a run-at-max probe")
		costLimit   = flag.Float64("cost-limit", 0, "constrained mode: allowed mean normalized overshoot d_j of each target (0.05 = 5% average overshoot)")
		timeSlack   = flag.Float64("time-slack", 0, "constrained mode: deadline target as a multiple of the run-at-max mean round time (0 = default 1.25)")
		energyFrac  = flag.Float64("energy-frac", 0, "constrained mode: energy budget as a fraction of the run-at-max mean energy (0 = default 0.9)")

		checkpoint = flag.String("checkpoint", "", "path for crash-safe training snapshots (empty disables)")
		ckEvery    = flag.Int("checkpoint-every", 0, "episodes between snapshots (0 = default 25)")
		resume     = flag.String("resume", "", "resume training from this checkpoint file")

		crashProb     = flag.Float64("crash-prob", 0, "per-iteration device crash probability (requires -deadline)")
		rejoinProb    = flag.Float64("rejoin-prob", 0.5, "per-iteration rejoin probability for crashed devices")
		blackoutProb  = flag.Float64("blackout-prob", 0, "per-attempt upload blackout probability")
		stragglerProb = flag.Float64("straggler-prob", 0, "per-iteration compute-straggler probability")
		stragglerMult = flag.Float64("straggler-mult", 0, "compute-time multiplier for straggler spikes (0 = default 4)")
		deadline      = flag.Float64("deadline", 0, "round barrier deadline in seconds (0 disables partial aggregation)")
		retryBackoff  = flag.Float64("retry-backoff", 0, "base retry backoff in seconds after a blacked-out upload (0 = default 1)")
	)
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "fltrain:", err)
		}
	}()

	sc := experiments.TestbedScenario(*seed)
	sc.N = *n
	sc.Lambda = *lambda
	opts := experiments.TrainOptions{
		Episodes:     *episodes,
		Hidden:       []int{64, 64},
		Arch:         core.Arch(*arch),
		Seed:         *seed,
		Workers:      *workers,
		TrainWorkers: *trainWorkers,
		Constrained:  *constrained,
		CostLimit:    *costLimit,
		TimeSlack:    *timeSlack,
		EnergyFrac:   *energyFrac,
	}
	if core.Arch(*arch) == core.ArchShared {
		opts.Hidden = []int{32, 32}
	}
	sys, err := sc.Build()
	if err != nil {
		fatal(err)
	}
	cfg, err := experiments.TrainConfig(sys, opts)
	if err != nil {
		fatal(err)
	}
	cfg.Checkpoint = *checkpoint
	cfg.CheckpointEvery = *ckEvery
	cfg.Env.RoundDeadline = *deadline
	cfg.Env.RetryBackoffSec = *retryBackoff
	fc := fault.Config{
		CrashProb:     *crashProb,
		RejoinProb:    *rejoinProb,
		BlackoutProb:  *blackoutProb,
		StragglerProb: *stragglerProb,
		StragglerMult: *stragglerMult,
	}
	if fc.Enabled() {
		cfg.Env.Faults = &fc
		fmt.Printf("fault injection: crash=%g rejoin=%g blackout=%g straggler=%g deadline=%gs\n",
			fc.CrashProb, fc.RejoinProb, fc.BlackoutProb, fc.StragglerProb, *deadline)
	}

	var tr *core.Trainer
	if *resume != "" {
		tr, err = core.ResumeTrainer(sys, cfg, *resume)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("resumed from %s\n", *resume)
	} else {
		tr, err = core.NewTrainer(sys, cfg)
		if err != nil {
			fatal(err)
		}
	}

	// Ctrl-C / SIGTERM: stop at the next episode (or wave) boundary so the
	// final snapshot is resumable. A second signal force-exits (the
	// server.OnSignal contract, shared by every binary).
	stopSig := server.OnSignal(func(os.Signal) {
		fmt.Fprintln(os.Stderr, "fltrain: interrupt — stopping at the next episode boundary")
		tr.Stop()
	})
	defer stopSig()

	fmt.Printf("training DRL agent: N=%d λ=%g episodes=%d arch=%s\n", *n, *lambda, *episodes, *arch)
	if *constrained {
		fmt.Printf("constrained PPO: deadline=%.3gs energy=%.3gJ cost-limit=%g\n",
			cfg.Env.DeadlineTarget, cfg.Env.EnergyBudget, *costLimit)
	}
	eps, err := tr.Run(nil)
	if errors.Is(err, core.ErrInterrupted) {
		if *checkpoint == "" {
			fmt.Fprintln(os.Stderr, "fltrain: interrupted with no -checkpoint path; training state discarded")
			os.Exit(1)
		}
		if err := tr.SaveCheckpoint(*checkpoint); err != nil {
			fatal(err)
		}
		fmt.Printf("interrupted after %d episodes; resume with -resume %s\n", len(eps), *checkpoint)
		return
	}
	if err != nil {
		fatal(err)
	}

	res := experiments.NewFig6Result(eps, tr.Agent())
	if err := res.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if err := res.Agent.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("saved agent to %s\n", *out)
	if *curves != "" {
		f, err := os.Create(*curves)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteCSV(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote convergence curves to %s\n", *curves)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fltrain:", err)
	os.Exit(1)
}
