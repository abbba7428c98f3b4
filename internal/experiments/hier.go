package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/fl"
	"repro/internal/hier"
	"repro/internal/report"
)

// HierSweepOptions size the hierarchical-federation scaling sweep.
type HierSweepOptions struct {
	// N is the device population shared by every protocol variant.
	N int
	// Regions is the edge-aggregator count for the two-tier variants.
	Regions int
	// Steps is the number of global rounds each variant runs.
	Steps int
	// CohortFrac is the per-region sampling fraction of the subsampled
	// variants (0 selects 0.05).
	CohortFrac float64
	// MinArrivalFrac is the fraction of regions whose arrival commits a
	// semi-async step (0 selects 0.75).
	MinArrivalFrac float64
	// MinArrivals overrides MinArrivalFrac with an absolute arrival count
	// when non-zero.
	MinArrivals int
	// StalenessBeta is the late-update decay of the semi-async variant
	// (0 = the engine default).
	StalenessBeta float64
	// EdgeLatencySec is the aggregator→cloud latency of the two-tier
	// variants (the price of the extra tier; 0 = colocated).
	EdgeLatencySec float64
	// Frac is the operating frequency fraction every device runs at, so all
	// variants execute the identical plan (0 selects 0.6).
	Frac float64
	// Tau, ModelBytes and Lambda parameterize the cost model (zeros select
	// 1, 5e5 and 1e-3).
	Tau        int
	ModelBytes float64
	Lambda     float64
	// Workers bounds the engine's per-region parallelism (0 = serial).
	Workers int
	// Seed drives fleet construction and cohort sampling.
	Seed int64
}

// DefaultHierSweepOptions cover the interesting regime at a size that still
// renders interactively.
func DefaultHierSweepOptions() HierSweepOptions {
	return HierSweepOptions{N: 20_000, Regions: 64, Steps: 40, Seed: 1}
}

func (o HierSweepOptions) withDefaults() HierSweepOptions {
	if o.CohortFrac == 0 {
		o.CohortFrac = 0.05
	}
	if o.MinArrivalFrac == 0 {
		o.MinArrivalFrac = 0.75
	}
	if o.Frac == 0 {
		o.Frac = 0.6
	}
	if o.Tau == 0 {
		o.Tau = 1
	}
	if o.ModelBytes == 0 {
		o.ModelBytes = 5e5
	}
	if o.Lambda == 0 {
		o.Lambda = 1e-3
	}
	return o
}

// HierVariant is one protocol's outcome over the sweep's rounds.
type HierVariant struct {
	// Name labels the protocol configuration.
	Name string
	// Regions is the edge-tier width (1 means flat).
	Regions int
	// MeanParticipants is the mean number of devices training per round.
	MeanParticipants float64
	// MeanCost, MeanDuration and MeanEnergy average the per-round system
	// cost, commit latency and total energy.
	MeanCost, MeanDuration, MeanEnergy float64
	// MeanUpdateWeight is the mean aggregation weight per commit
	// (N under a flat barrier; semi-async trades weight for speed).
	MeanUpdateWeight float64
	// StaleFrac is the fraction of incorporated updates that arrived late.
	StaleFrac float64
	// SimHorizon is the simulated wall-clock the rounds spanned.
	SimHorizon float64
	// RoundsPerSec is the measured host throughput of the engine itself —
	// the scaling number the two-tier design exists for.
	RoundsPerSec float64
}

// HierSweepResult compares the flat barrier against the two-tier protocols
// on one shared population.
type HierSweepResult struct {
	Title   string
	N       int
	Steps   int
	Variant []HierVariant
}

// HierSweep runs the same device population through four federation
// protocols — the flat synchronous barrier, the two-tier synchronous
// engine, cohort subsampling, and the buffered semi-async commit — under
// the identical fixed frequency plan, and reports both the simulated
// per-round economics and the measured host throughput of each engine.
// Variants run sequentially so the throughput numbers are not polluted by
// each other's scheduling.
func HierSweep(opts HierSweepOptions) (*HierSweepResult, error) {
	opts = opts.withDefaults()
	if opts.N <= 0 || opts.Regions <= 0 || opts.Steps <= 0 {
		return nil, fmt.Errorf("experiments: invalid hier sweep parameters")
	}
	// Aligned phases keep the fleet expressible as a flat fl.System, so the
	// flat baseline sees the exact same devices and traces.
	fleet, err := hier.NewFleet(opts.N, hier.FleetOptions{AlignPhases: true}, opts.Seed)
	if err != nil {
		return nil, err
	}
	res := &HierSweepResult{
		Title: fmt.Sprintf("Hierarchical federation — protocol scaling (N=%d, R=%d, %d rounds)",
			opts.N, opts.Regions, opts.Steps),
		N:     opts.N,
		Steps: opts.Steps,
	}

	flat, err := flatVariant(fleet, opts)
	if err != nil {
		return nil, err
	}
	res.Variant = append(res.Variant, flat)

	minArrivals := opts.MinArrivals
	if minArrivals == 0 {
		minArrivals = int(opts.MinArrivalFrac*float64(opts.Regions) + 0.5)
	}
	if minArrivals < 1 {
		minArrivals = 1
	}
	for _, v := range []struct {
		name        string
		cohortFrac  float64
		minArrivals int
	}{
		{"hier-sync", 1, 0},
		{"hier-cohort", opts.CohortFrac, 0},
		{"semi-async", opts.CohortFrac, minArrivals},
	} {
		hv, err := hierVariant(fleet, opts, v.name, v.cohortFrac, v.minArrivals)
		if err != nil {
			return nil, err
		}
		res.Variant = append(res.Variant, hv)
	}
	return res, nil
}

// flatVariant runs the PR 1 flat synchronous engine as the baseline.
func flatVariant(fleet *hier.Fleet, opts HierSweepOptions) (HierVariant, error) {
	sys, err := fleet.System(opts.Tau, opts.ModelBytes, opts.Lambda)
	if err != nil {
		return HierVariant{}, err
	}
	ses, err := fl.NewSession(sys, 0)
	if err != nil {
		return HierVariant{}, err
	}
	freqs := make([]float64, fleet.N())
	for i := range freqs {
		freqs[i] = opts.Frac * fleet.MaxFreqHz[i]
	}
	v := HierVariant{Name: "flat-barrier", Regions: 1}
	begin := time.Now()
	for k := 0; k < opts.Steps; k++ {
		it, err := ses.StepInto(freqs)
		if err != nil {
			return HierVariant{}, err
		}
		v.MeanCost += it.Cost
		v.MeanDuration += it.Duration
		v.MeanEnergy += it.TotalEnergy()
	}
	elapsed := time.Since(begin).Seconds()
	n := float64(opts.Steps)
	v.MeanCost /= n
	v.MeanDuration /= n
	v.MeanEnergy /= n
	v.MeanParticipants = float64(fleet.N())
	v.MeanUpdateWeight = float64(fleet.N())
	v.SimHorizon = ses.Clock
	v.RoundsPerSec = n / elapsed
	return v, nil
}

// hierVariant runs one two-tier configuration over the shared fleet.
func hierVariant(fleet *hier.Fleet, opts HierSweepOptions, name string, cohortFrac float64, minArrivals int) (HierVariant, error) {
	top, err := hier.EvenTopology(fleet.N(), opts.Regions)
	if err != nil {
		return HierVariant{}, err
	}
	eng, err := hier.NewEngine(fleet, top, hier.Config{
		Tau: opts.Tau, ModelBytes: opts.ModelBytes, Lambda: opts.Lambda,
		CohortFrac: cohortFrac, MinArrivals: minArrivals,
		StalenessBeta:  opts.StalenessBeta,
		EdgeLatencySec: opts.EdgeLatencySec,
		Workers:        opts.Workers, Seed: opts.Seed,
	})
	if err != nil {
		return HierVariant{}, err
	}
	var planner hier.CohortPlanner = hier.FixedPlanner{Frac: opts.Frac}
	v := HierVariant{Name: name, Regions: opts.Regions}
	applied, stale := 0, 0
	begin := time.Now()
	for k := 0; k < opts.Steps; k++ {
		st, err := eng.StepInto(planner)
		if err != nil {
			return HierVariant{}, err
		}
		v.MeanCost += st.Cost
		v.MeanDuration += st.Duration
		v.MeanEnergy += st.TotalEnergy()
		v.MeanParticipants += float64(st.Participants)
		v.MeanUpdateWeight += st.UpdateWeight
		applied += st.OnTime + st.StaleApplied
		stale += st.StaleApplied
	}
	elapsed := time.Since(begin).Seconds()
	n := float64(opts.Steps)
	v.MeanCost /= n
	v.MeanDuration /= n
	v.MeanEnergy /= n
	v.MeanParticipants /= n
	v.MeanUpdateWeight /= n
	if applied > 0 {
		v.StaleFrac = float64(stale) / float64(applied)
	}
	v.SimHorizon = eng.Clock()
	v.RoundsPerSec = n / elapsed
	return v, nil
}

// Render prints one row per protocol, with the host throughput speedup
// normalized to the flat barrier. The rounds/s and speedup columns are
// measured host timings — the one part of the flexperiments output that is
// legitimately not identical across runs or worker counts; every simulated
// column is deterministic.
func (r *HierSweepResult) Render(w io.Writer) error {
	tb := report.NewTable(r.Title+" — rounds/s measured on host",
		"protocol", "regions", "devices/round", "mean T (s)", "mean cost",
		"mean energy (J)", "update weight", "stale", "rounds/s", "speedup")
	base := r.Variant[0].RoundsPerSec
	for _, v := range r.Variant {
		speedup := "1.0x"
		if base > 0 && v.RoundsPerSec != base {
			speedup = fmt.Sprintf("%.1fx", v.RoundsPerSec/base)
		}
		tb.AddRowf(v.Name, v.Regions,
			fmt.Sprintf("%.0f", v.MeanParticipants),
			v.MeanDuration, v.MeanCost, v.MeanEnergy,
			fmt.Sprintf("%.0f", v.MeanUpdateWeight),
			fmt.Sprintf("%.0f%%", 100*v.StaleFrac),
			fmt.Sprintf("%.1f", v.RoundsPerSec), speedup)
	}
	return tb.Render(w)
}

// WriteCSV dumps one row per protocol variant. The measured throughput is
// deliberately excluded: the CSV is a plotting artifact and stays byte
// identical across runs and worker counts (internal/hier's benchmarks time
// the engine).
func (r *HierSweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"protocol", "regions", "mean_participants", "mean_duration_s",
		"mean_cost", "mean_energy_j", "mean_update_weight", "stale_frac",
		"sim_horizon_s",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, v := range r.Variant {
		if err := cw.Write([]string{
			v.Name, strconv.Itoa(v.Regions), f(v.MeanParticipants),
			f(v.MeanDuration), f(v.MeanCost), f(v.MeanEnergy),
			f(v.MeanUpdateWeight), f(v.StaleFrac), f(v.SimHorizon),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
