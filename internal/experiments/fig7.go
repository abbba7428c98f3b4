package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/guard"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
)

// CompareOptions size an online-reasoning comparison run.
type CompareOptions struct {
	// Iterations per run (400 in Fig. 7).
	Iterations int
	// Runs repeats the evaluation from spread-out start times (and fresh
	// Static estimates) and pools the per-iteration samples; Static's cost
	// has high variance in its few-sample estimate, so single runs are
	// noisy.
	Runs int
	// StaticSamples is the per-device sample count of the Static
	// baseline's bandwidth estimate ("randomly select some bandwidth
	// data"); the paper's wording suggests very few.
	StaticSamples int
	// IncludeExtras adds the MaxFreq, Random and Oracle references that
	// the paper does not plot but that bound the comparison.
	IncludeExtras bool
	// Seed drives Static estimates and the Random scheduler.
	Seed int64
	// Guard, when non-nil, adds a "drl+guard" column: the same actor
	// wrapped in the internal/guard safety pipeline (guarded online
	// evaluation mode). Each run builds its own guard around its own
	// policy clone.
	Guard *guard.Config
	// GuardFallback is the guard.ChainFromSpec spec for the added column
	// ("" → heuristic,maxfreq).
	GuardFallback string
	// Workers bounds how many evaluation runs execute concurrently: 0
	// (the default) auto-sizes to min(NumCPU, Runs) — subject to the
	// package MaxWorkers cap — and 1 forces the serial path. Every run
	// gets its own scheduler instances (including a cloned DRL policy)
	// and results merge in run order, so the output is bit-identical at
	// any worker count.
	Workers int
}

// DefaultCompareOptions match the paper's 400-iteration evaluation.
func DefaultCompareOptions() CompareOptions {
	return CompareOptions{Iterations: 400, Runs: 3, StaticSamples: 2, IncludeExtras: true, Seed: 1}
}

// SchedulerSummary aggregates one scheduler's pooled per-iteration metrics.
type SchedulerSummary struct {
	// Name of the scheduler.
	Name string
	// MeanCost/MeanTime/MeanEnergy are the bar heights of Fig. 7(a)–(c).
	MeanCost, MeanTime, MeanEnergy float64
	// P80Cost/P80Time are the 80th-percentile checkpoints the paper reads
	// off the CDFs of Fig. 7(d)–(e).
	P80Cost, P80Time float64
	// Costs, Times, Energies are the pooled per-iteration samples backing
	// the CDFs of Fig. 7(d)–(f).
	Costs, Times, Energies []float64
}

// CompareResult holds a full scheduler comparison (Figs. 7 and 8).
type CompareResult struct {
	// Title describes the scenario.
	Title string
	// Summaries holds one row per scheduler, DRL first.
	Summaries []SchedulerSummary
	// FirstRunCosts maps scheduler name to its per-iteration cost series
	// of the first run (the Fig. 8 "cost in each iteration" curves).
	FirstRunCosts map[string][]float64
	// GuardAudit is the first run's guard decision audit (nil unless
	// CompareOptions.Guard was set).
	GuardAudit *guard.Audit
	// Iterations and Runs echo the options.
	Iterations, Runs int
}

// Compare evaluates the trained agent against the paper's baselines on the
// scenario's system.
func Compare(title string, sc Scenario, agent *core.Agent, opts CompareOptions) (*CompareResult, error) {
	if opts.Iterations <= 0 || opts.Runs <= 0 {
		return nil, fmt.Errorf("experiments: iterations %d and runs %d must be positive", opts.Iterations, opts.Runs)
	}
	if opts.StaticSamples <= 0 {
		return nil, fmt.Errorf("experiments: static samples %d must be positive", opts.StaticSamples)
	}
	if agent == nil || agent.Policy == nil {
		return nil, fmt.Errorf("experiments: nil agent")
	}
	sys, err := sc.Build()
	if err != nil {
		return nil, err
	}
	res := &CompareResult{
		Title:         title,
		FirstRunCosts: map[string][]float64{},
		Iterations:    opts.Iterations,
		Runs:          opts.Runs,
	}
	pooled := map[string]*SchedulerSummary{}
	order := []string{}
	record := func(name string, its []fl.IterationStats, firstRun bool) {
		s, ok := pooled[name]
		if !ok {
			s = &SchedulerSummary{Name: name}
			pooled[name] = s
			order = append(order, name)
		}
		s.Costs = append(s.Costs, sched.Costs(its)...)
		s.Times = append(s.Times, sched.Durations(its)...)
		s.Energies = append(s.Energies, sched.ComputeEnergies(its)...)
		if firstRun {
			res.FirstRunCosts[name] = sched.Costs(its)
		}
	}

	// Spread deterministic start times across the trace cycle. Runs are
	// independent — every scheduler below is constructed per run from the
	// run's own seeded RNG, and the DRL scheduler samples a cloned policy
	// because network forward passes mutate scratch caches — so they fan
	// out across the worker pool and merge in run order, bit-identical to
	// the serial loop.
	maxStart := sys.Traces[0].Duration()
	evals := make([][]core.EvalResult, opts.Runs)
	audits := make([]*guard.Audit, opts.Runs)
	err = RunJobs(opts.Runs, opts.Workers, func(run int) error {
		start := maxStart * float64(run) / float64(opts.Runs)
		rng := rand.New(rand.NewSource(opts.Seed + int64(run)*7919))

		isolated := &core.Agent{Policy: agent.Policy.ClonePolicy(), Critic: agent.Critic, EnvCfg: agent.EnvCfg, Norm: agent.Norm}
		drl, err := isolated.Scheduler()
		if err != nil {
			return err
		}
		schedulers := []sched.Scheduler{drl}
		if opts.Guard != nil {
			// A second policy clone: the guarded and bare columns must not
			// share forward-pass scratch buffers.
			giso := &core.Agent{Policy: agent.Policy.ClonePolicy(), Critic: agent.Critic, EnvCfg: agent.EnvCfg, Norm: agent.Norm}
			g, err := giso.GuardedScheduler(sys, *opts.Guard, opts.GuardFallback)
			if err != nil {
				return err
			}
			schedulers = append(schedulers, g)
			audits[run] = g.Audit()
		}
		initBW := make([]float64, sys.N())
		for i, tr := range sys.Traces {
			// The heuristic's pre-observation estimate: the trace's overall
			// mean, the natural "no information yet" prior.
			initBW[i] = tr.Summary().Mean
		}
		h, err := sched.NewHeuristic(initBW, 0.05)
		if err != nil {
			return err
		}
		// The faithful Static [4]: barrier-unaware per-device optimum held
		// fixed for the whole run (the 2019 baseline predates the paper's
		// barrier-slack insight).
		st, err := sched.NewStaticDecoupled(sys, 0.05)
		if err != nil {
			return err
		}
		schedulers = append(schedulers, h, st)
		if opts.IncludeExtras {
			// A charitable Static variant: barrier-aware plan from a few
			// random per-device bandwidth samples (§V-A wording).
			ss, err := sched.NewStaticSampled(sys, opts.StaticSamples, 0.05, rng)
			if err != nil {
				return err
			}
			rd, err := sched.NewRandom(0.05, rng)
			if err != nil {
				return err
			}
			or, err := sched.NewOracle(0.05, 60)
			if err != nil {
				return err
			}
			schedulers = append(schedulers, &named{ss, "static-sampled"}, sched.MaxFreq{}, rd, or)
		}
		results, err := core.Evaluate(sys, schedulers, start, opts.Iterations)
		if err != nil {
			return err
		}
		evals[run] = results
		return nil
	})
	if err != nil {
		return nil, err
	}
	for run, results := range evals {
		for _, r := range results {
			record(r.Name, r.Iterations, run == 0)
		}
	}
	res.GuardAudit = audits[0]

	for _, name := range order {
		s := pooled[name]
		s.MeanCost = stats.Mean(s.Costs)
		s.MeanTime = stats.Mean(s.Times)
		s.MeanEnergy = stats.Mean(s.Energies)
		s.P80Cost = stats.Percentile(s.Costs, 80)
		s.P80Time = stats.Percentile(s.Times, 80)
		res.Summaries = append(res.Summaries, *s)
	}
	return res, nil
}

// named relabels a scheduler so two variants of the same type can appear
// in one comparison.
type named struct {
	sched.Scheduler
	name string
}

// Name implements sched.Scheduler.
func (n *named) Name() string { return n.name }

// Summary returns the named scheduler's row.
func (r *CompareResult) Summary(name string) (SchedulerSummary, bool) {
	for _, s := range r.Summaries {
		if s.Name == name {
			return s, true
		}
	}
	return SchedulerSummary{}, false
}

// Render prints the comparison table with the paper's headline ratios and a
// bootstrap 95% confidence interval on each scheduler's mean-cost gap to
// DRL (positive interval ⇒ statistically worse than DRL).
func (r *CompareResult) Render(w io.Writer) error {
	tb := report.NewTable(r.Title,
		"scheduler", "mean cost", "vs drl", "Δcost 95% CI", "mean time", "mean energy", "P80 cost", "P80 time")
	base := 0.0
	var drlCosts []float64
	if d, ok := r.Summary("drl"); ok {
		base = d.MeanCost
		drlCosts = d.Costs
	}
	for _, s := range r.Summaries {
		rel, ci := "—", "—"
		if base > 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*(s.MeanCost/base-1))
			if s.Name != "drl" && len(drlCosts) > 0 && len(s.Costs) > 0 {
				d := stats.MeanDiffCI(s.Costs, drlCosts, 400, 0.95, 11)
				ci = fmt.Sprintf("[%+.2f, %+.2f]", d.Lo, d.Hi)
			}
		}
		tb.AddRowf(s.Name, s.MeanCost, rel, ci, s.MeanTime, s.MeanEnergy, s.P80Cost, s.P80Time)
	}
	return tb.Render(w)
}

// WriteCDFCSV dumps the pooled cost/time/energy CDF curves (Fig. 7(d)–(f))
// for every scheduler: columns are <scheduler>_x and <scheduler>_F.
func (r *CompareResult) WriteCDFCSV(w io.Writer, metric string, points int) error {
	series := map[string][]float64{}
	var x []float64
	for _, s := range r.Summaries {
		var data []float64
		switch metric {
		case "cost":
			data = s.Costs
		case "time":
			data = s.Times
		case "energy":
			data = s.Energies
		default:
			return fmt.Errorf("experiments: unknown CDF metric %q", metric)
		}
		xs, fs := stats.NewCDF(data).Points(points)
		if x == nil {
			x = make([]float64, len(xs))
			for i := range x {
				x[i] = float64(i)
			}
		}
		series[s.Name+"_x"] = xs
		series[s.Name+"_F"] = fs
	}
	return report.WriteSeriesCSV(w, "idx", x, series)
}
