// Command flsim runs the online-reasoning comparison of the paper's §V-B2:
// a trained DRL agent against the Heuristic [3] and Static [4] baselines
// (plus MaxFreq/Random/Oracle references) on a trace-driven federated-
// learning simulation, printing Fig. 7/8-style tables.
//
// The agent must have been trained with fltrain on a scenario with the same
// device count and history length; flsim rebuilds the scenario from the
// same seed. The agent file (JSON) carries the distribution of states on
// the agent's training system, and -guard's drift gate scores states
// against it.
//
// Usage:
//
//	flsim -agent agent.json [-n 3] [-lambda 1] [-iters 400] [-runs 3]
//	      [-seed 1] [-cdf cost.csv]
//	      [-guard] [-guard-fallback heuristic,maxfreq] [-ood-threshold 4]
//
// With -hier the command instead runs the two-tier hierarchical engine
// standalone (no agent file needed) and prints the protocol-scaling table —
// flat barrier vs hier-sync vs cohort subsampling vs semi-async — at any
// population size, a million devices included:
//
//	flsim -hier -n 1000000 -hier-regions 1024 -hier-cohort 0.05
//	      [-hier-min-arrivals 768] [-hier-beta 0.5] [-hier-edge-latency 0]
//	      [-hier-workers 0] [-hier-steps 20]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/guard"
)

func main() {
	var (
		agentPath = flag.String("agent", "agent.json", "trained agent file from fltrain")
		n         = flag.Int("n", 3, "number of mobile devices (must match training)")
		lambda    = flag.Float64("lambda", 1, "cost weight λ")
		iters     = flag.Int("iters", 400, "iterations per evaluation run")
		runs      = flag.Int("runs", 3, "evaluation runs from spread start times")
		seed      = flag.Int64("seed", 1, "scenario seed (must match training)")
		cdfPath   = flag.String("cdf", "", "optional CSV path for the cost CDFs (Fig. 7(d))")

		useGuard = flag.Bool("guard", false, "add a drl+guard column: the actor wrapped in the online safety pipeline")
		guardFB  = flag.String("guard-fallback", "", "guard fallback chain spec (default heuristic,maxfreq)")
		oodThr   = flag.Float64("ood-threshold", 0, "guard OOD trip threshold in capped-|z| units (0 = guard default, <0 disables OOD)")

		hierMode    = flag.Bool("hier", false, "run the two-tier hierarchical engine standalone (protocol-scaling table; ignores -agent)")
		hierRegions = flag.Int("hier-regions", 64, "edge aggregator count")
		hierCohort  = flag.Float64("hier-cohort", 0.05, "per-region cohort sampling fraction in (0, 1]")
		hierMinArr  = flag.Int("hier-min-arrivals", 0, "regional arrivals that commit a semi-async step (0 = 75% of regions)")
		hierBeta    = flag.Float64("hier-beta", 0, "staleness decay β of late updates (0 = engine default)")
		hierEdge    = flag.Float64("hier-edge-latency", 0, "aggregator→cloud upload latency in seconds")
		hierWorkers = flag.Int("hier-workers", 0, "per-region worker pool size (0 = serial; results identical either way)")
		hierSteps   = flag.Int("hier-steps", 20, "global rounds per protocol variant")
	)
	flag.Parse()

	if *hierMode {
		if err := runHier(*n, *hierRegions, *hierSteps, *hierCohort, *hierMinArr, *hierBeta, *hierEdge, *hierWorkers, *lambda, *seed); err != nil {
			fatal(err)
		}
		return
	}

	agent, err := core.LoadAgent(*agentPath)
	if err != nil {
		fatal(err)
	}
	sc := experiments.TestbedScenario(*seed)
	sc.N = *n
	sc.Lambda = *lambda
	opts := experiments.DefaultCompareOptions()
	opts.Iterations = *iters
	opts.Runs = *runs
	opts.Seed = *seed
	if *useGuard {
		opts.Guard = &guard.Config{OODThreshold: *oodThr}
		opts.GuardFallback = *guardFB
	}
	res, err := experiments.Compare(
		fmt.Sprintf("online reasoning (N=%d, λ=%g, %d iterations × %d runs)", *n, *lambda, *iters, *runs),
		sc, agent, opts)
	if err != nil {
		fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if res.GuardAudit != nil {
		fmt.Println()
		if err := res.GuardAudit.Summary().Render(os.Stdout); err != nil {
			fatal(err)
		}
		if trips := res.GuardAudit.TripSummary(); trips != nil {
			fmt.Println()
			if err := trips.Render(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}
	if *cdfPath != "" {
		f, err := os.Create(*cdfPath)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteCDFCSV(f, "cost", 100); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote cost CDFs to %s\n", *cdfPath)
	}
}

// runHier drives the standalone hierarchical protocol-scaling table.
func runHier(n, regions, steps int, cohort float64, minArrivals int, beta, edge float64, workers int, lambda float64, seed int64) error {
	opts := experiments.DefaultHierSweepOptions()
	opts.N = n
	opts.Regions = regions
	opts.Steps = steps
	opts.CohortFrac = cohort
	opts.MinArrivals = minArrivals
	opts.StalenessBeta = beta
	opts.EdgeLatencySec = edge
	opts.Workers = workers
	opts.Lambda = lambda
	opts.Seed = seed
	res, err := experiments.HierSweep(opts)
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flsim:", err)
	os.Exit(1)
}
