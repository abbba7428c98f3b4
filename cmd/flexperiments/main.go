// Command flexperiments regenerates every table and figure of the paper's
// evaluation end to end — Fig. 2 (trace dynamics), Fig. 6 (training
// convergence), Fig. 7 (3-device testbed), Fig. 8 (50-device simulation) —
// plus the fault sweep, the guard-chaos ablation, the safe-training
// comparison, the hierarchical protocol-scaling sweep and the design
// ablations,
// printing each and optionally writing CSV data
// for plotting. Independent sections run concurrently on a bounded worker
// pool (-workers, default NumCPU); each renders into its own buffer and the
// buffers are printed in the canonical order as they complete, so the
// output is identical at any worker count (sole exception: the hier-sweep
// table's measured rounds/s columns are host timings; its CSV is
// deterministic). A full run takes about 8 s at the default -workers on a
// 2-vCPU guest; -quick shrinks everything for smoke testing.
//
// Usage:
//
//	flexperiments [-quick] [-out results/] [-skip-ablations] [-workers N]
//	              [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace exec.trace]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/profiling"
)

type sizing struct {
	trainEpisodes  int
	simEpisodes    int
	iters          int
	runs           int
	simN           int
	simIters       int
	ablEpisodes    int
	ablIters       int
	ablStaticSeeds int
	faultEpisodes  int
	faultIters     int
	guardEpisodes  int
	guardIters     int
	safeEpisodes   int
	safeIters      int
	hierN          int
	hierRegions    int
	hierSteps      int
}

// section is one independently runnable chunk of the evaluation. run writes
// every table and progress note into w (never to stdout directly) so
// concurrent sections cannot interleave their output.
type section struct {
	name string
	run  func(w io.Writer) error
}

func main() {
	var (
		quick   = flag.Bool("quick", false, "shrink all experiments for a fast smoke run")
		out     = flag.String("out", "", "optional directory for CSV outputs")
		skipAbl = flag.Bool("skip-ablations", false, "skip the ablation sweeps")
		seed    = flag.Int64("seed", 1, "master seed")
		workers = flag.Int("workers", runtime.NumCPU(), "bound on concurrent jobs in each worker pool (sections, comparison runs, ablation grids); 1 = fully serial")
	)
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()
	experiments.MaxWorkers = *workers

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "flexperiments:", err)
		}
	}()

	sz := sizing{
		trainEpisodes: 600, simEpisodes: 400,
		iters: 400, runs: 3,
		simN: 50, simIters: 200,
		ablEpisodes: 60, ablIters: 100, ablStaticSeeds: 6,
		faultEpisodes: 300, faultIters: 200,
		guardEpisodes: 300, guardIters: 40,
		safeEpisodes: 120, safeIters: 30,
		hierN: 20_000, hierRegions: 64, hierSteps: 40,
	}
	if *quick {
		sz = sizing{
			trainEpisodes: 10, simEpisodes: 6,
			iters: 20, runs: 2,
			simN: 8, simIters: 15,
			ablEpisodes: 4, ablIters: 10, ablStaticSeeds: 2,
			faultEpisodes: 4, faultIters: 10,
			guardEpisodes: 4, guardIters: 8,
			safeEpisodes: 4, safeIters: 8,
			hierN: 2_000, hierRegions: 16, hierSteps: 10,
		}
	}

	var outDir string
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		outDir = *out
	}
	// writeCSV writes one CSV file and notes it on w (the section's buffer).
	writeCSV := func(w io.Writer, name string, write func(io.Writer) error) error {
		if outDir == "" {
			return nil
		}
		path := filepath.Join(outDir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
		return nil
	}

	testbed := experiments.TestbedScenario(*seed)
	cmpOpts := experiments.DefaultCompareOptions()
	cmpOpts.Iterations = sz.iters
	cmpOpts.Runs = sz.runs
	cmpOpts.Seed = *seed

	sections := []section{
		{"fig2", func(w io.Writer) error {
			fig2, err := experiments.Fig2(400, *seed)
			if err != nil {
				return err
			}
			if err := fig2.Render(w); err != nil {
				return err
			}
			if outDir != "" {
				wp := filepath.Join(outDir, "fig2_walking.csv")
				bp := filepath.Join(outDir, "fig2_bus.csv")
				wf, err := os.Create(wp)
				if err != nil {
					return err
				}
				bf, err := os.Create(bp)
				if err != nil {
					wf.Close()
					return err
				}
				err = fig2.WriteCSV(wf, bf)
				wf.Close()
				bf.Close()
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "wrote %s and %s\n", wp, bp)
			}
			fmt.Fprintln(w)
			return nil
		}},
		// Figures 6 and 7 chain (Fig. 7 evaluates the Fig. 6 agent), so
		// they form one section; its inner Compare fans out over runs.
		{"fig6+fig7", func(w io.Writer) error {
			trainOpts := experiments.TestbedTrainOptions()
			trainOpts.Episodes = sz.trainEpisodes
			trainOpts.Seed = *seed
			fig6, err := experiments.Fig6(testbed, trainOpts)
			if err != nil {
				return err
			}
			if err := fig6.Render(w); err != nil {
				return err
			}
			if err := writeCSV(w, "fig6_convergence.csv", fig6.WriteCSV); err != nil {
				return err
			}
			fmt.Fprintln(w)

			fig7, err := experiments.Fig7(testbed, fig6.Agent, cmpOpts)
			if err != nil {
				return err
			}
			if err := fig7.Render(w); err != nil {
				return err
			}
			for _, metric := range []string{"cost", "time", "energy"} {
				m := metric
				err := writeCSV(w, "fig7_cdf_"+m+".csv", func(f io.Writer) error { return fig7.WriteCDFCSV(f, m, 100) })
				if err != nil {
					return err
				}
			}
			fmt.Fprintln(w)
			return nil
		}},
		{"fig8", func(w io.Writer) error {
			sim := experiments.SimulationScenario(sz.simN, *seed)
			simOpts := experiments.SimulationTrainOptions()
			simOpts.Episodes = sz.simEpisodes
			simOpts.Seed = *seed
			simSys, err := sim.Build()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "training Fig. 8 agent (N=%d, shared actor, %d episodes)...\n", sz.simN, sz.simEpisodes)
			agent8, _, err := experiments.TrainAgent(simSys, simOpts)
			if err != nil {
				return err
			}
			cmp8 := cmpOpts
			cmp8.Iterations = sz.simIters
			fig8, err := experiments.Fig8(sim, agent8, cmp8)
			if err != nil {
				return err
			}
			if err := fig8.Render(w); err != nil {
				return err
			}
			if err := writeCSV(w, "fig8_cost_series.csv", fig8.WriteCostSeriesCSV); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return nil
		}},
		// Robustness: cost vs crash rate under partial aggregation — the
		// graceful-degradation companion to Fig. 7 (DESIGN.md §9).
		{"fault-sweep", func(w io.Writer) error {
			fo := experiments.DefaultFaultSweepOptions()
			fo.Episodes = sz.faultEpisodes
			fo.Iterations = sz.faultIters
			fo.Seed = *seed
			res, err := experiments.FaultSweep(testbed, fo)
			if err != nil {
				return err
			}
			if err := res.Render(w); err != nil {
				return err
			}
			if err := writeCSV(w, "fault_sweep.csv", res.WriteCSV); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return nil
		}},
		// Scaling: the flat barrier vs the two-tier protocols on one shared
		// population (DESIGN.md §14). Engine workers stay serial here so the
		// measured rounds/s are comparable while other sections run.
		{"hier-sweep", func(w io.Writer) error {
			ho := experiments.DefaultHierSweepOptions()
			ho.N = sz.hierN
			ho.Regions = sz.hierRegions
			ho.Steps = sz.hierSteps
			ho.Seed = *seed
			res, err := experiments.HierSweep(ho)
			if err != nil {
				return err
			}
			if err := res.Render(w); err != nil {
				return err
			}
			if err := writeCSV(w, "hier_sweep.csv", res.WriteCSV); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return nil
		}},
		// Robustness: the guard ablation — guarded controller vs its own
		// unguarded actor vs max-frequency safe mode across the chaos
		// mutation classes (DESIGN.md §11).
		{"guard-chaos", func(w io.Writer) error {
			gopts := experiments.DefaultGuardChaosOptions()
			gopts.Episodes = sz.guardEpisodes
			gopts.Iterations = sz.guardIters
			gopts.Seed = *seed
			res, err := experiments.GuardChaos(testbed, gopts)
			if err != nil {
				return err
			}
			if err := res.Render(w); err != nil {
				return err
			}
			if err := writeCSV(w, "guard_chaos.csv", res.WriteCSV); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return nil
		}},
		// Robustness: safe training — does constraint-aware training reduce
		// how often the serving-time guard has to fire? (DESIGN.md §16).
		{"safe-training", func(w io.Writer) error {
			sc := experiments.TestbedScenario(*seed)
			sc.N = 2
			sc.TraceSec = 1500
			sc.Lambda = 0.1 // time-dominated objective: the plan gate is policy-sensitive
			sopts := experiments.DefaultSafeTrainingOptions()
			sopts.Episodes = sz.safeEpisodes
			sopts.Iterations = sz.safeIters
			sopts.Seed = *seed
			// The gate's CostFactor matches the constrained arm's deadline
			// slack, so constrained training internalizes the exact bound
			// the guard enforces (the acceptance-test profile).
			sopts.Guard = guard.Config{CostFactor: 1.25, TripAfter: 1, Probation: 4}
			res, err := experiments.SafeTraining(sc, sopts)
			if err != nil {
				return err
			}
			if err := res.Render(w); err != nil {
				return err
			}
			if err := res.Check(); err != nil {
				fmt.Fprintf(w, "acceptance: %v\n", err)
			} else {
				fmt.Fprintf(w, "acceptance: constrained arm trips strictly less (%d < %d) at cost %.1f <= %.1f\n",
					res.Constrained.Trips, res.Unconstrained.Trips,
					res.Constrained.Cost, res.Unconstrained.Cost)
			}
			if err := writeCSV(w, "safe_training.csv", res.WriteCSV); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return nil
		}},
	}

	if !*skipAbl {
		ablation := func(name string, run func() (*experiments.AblationResult, error)) section {
			return section{name, func(w io.Writer) error {
				res, err := run()
				if err != nil {
					return err
				}
				if err := res.Render(w); err != nil {
					return err
				}
				fmt.Fprintln(w)
				return nil
			}}
		}
		sections = append(sections,
			ablation("abl-static-samples", func() (*experiments.AblationResult, error) {
				return experiments.AblationStaticSamples(testbed, []int{1, 2, 3, 5, 10, 20}, sz.ablStaticSeeds, sz.ablIters)
			}),
			ablation("abl-history", func() (*experiments.AblationResult, error) {
				return experiments.AblationHistory(testbed, []int{0, 1, 3, 5, 8}, sz.ablEpisodes, sz.ablIters)
			}),
			ablation("abl-lambda", func() (*experiments.AblationResult, error) {
				return experiments.AblationLambda(testbed, []float64{0.1, 0.5, 1, 2}, sz.ablEpisodes, sz.ablIters)
			}),
			ablation("abl-arch", func() (*experiments.AblationResult, error) {
				return experiments.AblationArch(experiments.SimulationScenario(10, *seed), sz.ablEpisodes, sz.ablIters)
			}),
			ablation("abl-barrier", func() (*experiments.AblationResult, error) {
				return experiments.AblationBarrierAwareness(testbed, sz.ablIters)
			}),
			ablation("abl-sync-async", func() (*experiments.AblationResult, error) {
				return experiments.AblationSyncAsync(testbed, sz.ablIters)
			}),
			ablation("abl-optimizer", func() (*experiments.AblationResult, error) {
				return experiments.AblationOptimizer(testbed, sz.trainEpisodes/2, sz.ablIters)
			}),
			ablation("abl-selection", func() (*experiments.AblationResult, error) {
				return experiments.AblationSelection(experiments.SimulationScenario(10, *seed), 30, sz.ablIters, *seed)
			}),
		)
	}

	// Run all sections on the pool. Each renders into its own buffer; a
	// printer goroutine flushes the buffers in canonical order as soon as
	// every earlier section has finished, so output streams progressively
	// yet deterministically.
	bufs := make([]bytes.Buffer, len(sections))
	done := make([]chan struct{}, len(sections))
	for i := range done {
		done[i] = make(chan struct{})
	}
	printed := make(chan struct{})
	go func() {
		defer close(printed)
		for i := range sections {
			<-done[i]
			os.Stdout.Write(bufs[i].Bytes())
		}
	}()
	err = experiments.RunJobs(len(sections), *workers, func(i int) error {
		defer close(done[i])
		if err := sections[i].run(&bufs[i]); err != nil {
			return fmt.Errorf("%s: %w", sections[i].name, err)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	<-printed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexperiments:", err)
	os.Exit(1)
}
