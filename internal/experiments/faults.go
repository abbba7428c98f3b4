package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
)

// FaultSweepOptions size the fault-robustness sweep.
type FaultSweepOptions struct {
	// CrashProbs are the per-iteration crash probabilities to sweep
	// (include 0 for the fault-free reference point).
	CrashProbs []float64
	// RejoinProb is the per-iteration rejoin probability of a crashed
	// device (0 selects 0.5).
	RejoinProb float64
	// Episodes of fault-free DRL training for the evaluated agent.
	Episodes int
	// Iterations evaluated per (crash rate, scheduler) cell.
	Iterations int
	// Deadline is the round barrier deadline in seconds; 0 auto-probes it
	// as 3× the longest fault-free run-at-max round so healthy schedulers
	// have comfortable slack and only crashes or pathological plans drop
	// devices.
	Deadline float64
	// Seed drives training, fault schedules and the Static estimate.
	Seed int64
	// Workers bounds the sweep's concurrency (see RunJobs); the output is
	// identical at any worker count.
	Workers int
}

// DefaultFaultSweepOptions cover the interesting regime: from fault-free to
// a third of the fleet crashing every iteration.
func DefaultFaultSweepOptions() FaultSweepOptions {
	return FaultSweepOptions{
		CrashProbs: []float64{0, 0.05, 0.1, 0.2, 0.3},
		RejoinProb: 0.5,
		Episodes:   300,
		Iterations: 200,
		Seed:       1,
	}
}

// FaultSweepCell is one scheduler's outcome at one crash rate.
type FaultSweepCell struct {
	// Scheduler names the policy.
	Scheduler string
	// MeanCost and MeanTime average the per-iteration cost and duration.
	MeanCost, MeanTime float64
	// SurvivorFrac is the mean fraction of the fleet whose update made the
	// aggregation (1 = nobody crashed or was dropped at the deadline).
	SurvivorFrac float64
}

// FaultSweepRow collects every scheduler's outcome at one crash rate. All
// schedulers in a row face the identical fault schedule, so the comparison
// isolates the scheduling policy.
type FaultSweepRow struct {
	CrashProb float64
	Cells     []FaultSweepCell
}

// FaultSweepResult is the graceful-degradation sweep: system cost as a
// function of device churn, DRL against the §V baselines.
type FaultSweepResult struct {
	Title string
	// Deadline is the barrier deadline every cell ran under (auto-probed
	// when the options left it zero).
	Deadline float64
	// Schedulers is the column order of every row's Cells.
	Schedulers []string
	Rows       []FaultSweepRow
	// Iterations echoes the options.
	Iterations int
}

// FaultSweep trains a DRL agent fault-free, then evaluates it against the
// paper's baselines under increasingly unreliable fleets: every device
// crashes with probability p per iteration and rejoins later, and the round
// barrier falls back to partial aggregation at the deadline. Each crash rate
// uses one seeded fault schedule shared by all schedulers, so cells differ
// only in the frequency policy. The whole grid is deterministic in
// (scenario, options) at any worker count.
func FaultSweep(sc Scenario, opts FaultSweepOptions) (*FaultSweepResult, error) {
	if len(opts.CrashProbs) == 0 || opts.Episodes <= 0 || opts.Iterations <= 0 {
		return nil, fmt.Errorf("experiments: invalid fault sweep parameters")
	}
	rejoin := opts.RejoinProb
	if rejoin == 0 {
		rejoin = 0.5
	}
	sys, err := sc.Build()
	if err != nil {
		return nil, err
	}
	agent, _, err := TrainAgent(sys, TrainOptions{Episodes: opts.Episodes, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	deadline := opts.Deadline
	if deadline == 0 {
		// Probe the fault-free run-at-max round times: 3× their maximum is
		// generous for any sane plan (upload time is scheduler-independent)
		// yet finite, so an all-down round still terminates.
		probe, err := sched.Run(sys, sched.MaxFreq{}, 0, min(opts.Iterations, 20))
		if err != nil {
			return nil, err
		}
		deadline = 3 * stats.Summarize(sched.Durations(probe)).Max
	}

	res := &FaultSweepResult{
		Title:      fmt.Sprintf("Fault sweep — cost vs crash rate (N=%d, deadline %.0fs, %d iterations)", sys.N(), deadline, opts.Iterations),
		Deadline:   deadline,
		Schedulers: []string{"drl", "heuristic", "static-sampled", "maxfreq"},
		Iterations: opts.Iterations,
	}
	initBW := make([]float64, sys.N())
	for i, tr := range sys.Traces {
		initBW[i] = tr.Summary().Mean
	}
	// Each crash rate is an independent cell grid: it builds its own fault
	// schedule and scheduler instances (Agent.Scheduler copies the actor,
	// whose forward passes mutate scratch caches) from its own index-derived
	// seeds, so the rows fan out over the worker pool and fill a
	// preallocated table, bit-identical to the sequential loop.
	rows := make([]FaultSweepRow, len(opts.CrashProbs))
	err = RunJobs(len(opts.CrashProbs), opts.Workers, func(i int) error {
		p := opts.CrashProbs[i]
		iterOpts := fl.IterOptions{Deadline: deadline}
		if p > 0 {
			fs, err := fault.NewSchedule(fault.Config{CrashProb: p, RejoinProb: rejoin}, sys.N(), opts.Seed+int64(i)*7919)
			if err != nil {
				return err
			}
			iterOpts.Faults = fs
		}
		rng := rand.New(rand.NewSource(opts.Seed + int64(i)*104729 + 11))
		drl, err := agent.Scheduler()
		if err != nil {
			return err
		}
		h, err := sched.NewHeuristic(initBW, 0.05)
		if err != nil {
			return err
		}
		st, err := sched.NewStaticSampled(sys, 2, 0.05, rng)
		if err != nil {
			return err
		}
		row := FaultSweepRow{CrashProb: p}
		for _, s := range []sched.Scheduler{drl, h, &named{st, "static-sampled"}, sched.MaxFreq{}} {
			its, err := sched.RunOpts(sys, s, 0, opts.Iterations, iterOpts)
			if err != nil {
				return err
			}
			surv := 0.0
			for _, n := range sched.Survivors(its) {
				surv += float64(n)
			}
			row.Cells = append(row.Cells, FaultSweepCell{
				Scheduler:    s.Name(),
				MeanCost:     stats.Mean(sched.Costs(its)),
				MeanTime:     stats.Mean(sched.Durations(its)),
				SurvivorFrac: surv / float64(len(its)*sys.N()),
			})
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Render prints mean cost per scheduler against the crash rate, plus the
// realized survivor fraction under the DRL policy.
func (r *FaultSweepResult) Render(w io.Writer) error {
	headers := append([]string{"crash prob"}, r.Schedulers...)
	headers = append(headers, "survivors (drl)")
	tb := report.NewTable(r.Title, headers...)
	for _, row := range r.Rows {
		cells := []interface{}{fmt.Sprintf("%.2f", row.CrashProb)}
		for _, c := range row.Cells {
			cells = append(cells, c.MeanCost)
		}
		cells = append(cells, fmt.Sprintf("%.0f%%", 100*row.Cells[0].SurvivorFrac))
		tb.AddRowf(cells...)
	}
	return tb.Render(w)
}

// WriteCSV dumps crash rate vs per-scheduler mean cost and the DRL survivor
// fraction.
func (r *FaultSweepResult) WriteCSV(w io.Writer) error {
	x := make([]float64, len(r.Rows))
	series := map[string][]float64{}
	for i, row := range r.Rows {
		x[i] = row.CrashProb
		for _, c := range row.Cells {
			series["cost_"+c.Scheduler] = append(series["cost_"+c.Scheduler], c.MeanCost)
		}
		series["survivor_frac_drl"] = append(series["survivor_frac_drl"], row.Cells[0].SurvivorFrac)
	}
	return report.WriteSeriesCSV(w, "crash_prob", x, series)
}
