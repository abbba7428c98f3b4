package sched

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fl"
	"repro/internal/stats"
)

// Selector chooses which devices participate in the upcoming iteration —
// the client-selection axis of Nishio & Yonetani [38] (cited in §VI),
// orthogonal to the paper's frequency control. A Selector composes with any
// Scheduler: the scheduler still picks frequencies for everyone, the
// selector masks who actually runs.
type Selector interface {
	// Name identifies the selector in reports.
	Name() string
	// Select returns one participation flag per device; at least one must
	// be true.
	Select(ctx Context) ([]bool, error)
}

// FullParticipation selects every device — the paper's setting.
type FullParticipation struct{}

// Name implements Selector.
func (FullParticipation) Name() string { return "full" }

// Select implements Selector.
func (FullParticipation) Select(ctx Context) ([]bool, error) {
	mask := make([]bool, ctx.Sys.N())
	for i := range mask {
		mask[i] = true
	}
	return mask, nil
}

// RandomFraction selects each round a uniformly random subset of size
// ⌈C·N⌉ — the client fraction of McMahan et al.'s FedAvg.
type RandomFraction struct {
	C   float64
	Rng *rand.Rand
}

// NewRandomFraction validates the fraction C ∈ (0, 1].
func NewRandomFraction(c float64, rng *rand.Rand) (*RandomFraction, error) {
	if c <= 0 || c > 1 {
		return nil, fmt.Errorf("sched: client fraction %v outside (0,1]", c)
	}
	if rng == nil {
		return nil, fmt.Errorf("sched: nil rng")
	}
	return &RandomFraction{C: c, Rng: rng}, nil
}

// Name implements Selector.
func (*RandomFraction) Name() string { return "random-fraction" }

// Select implements Selector.
func (r *RandomFraction) Select(ctx Context) ([]bool, error) {
	n := ctx.Sys.N()
	k := int(float64(n)*r.C + 0.999999)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	perm := r.Rng.Perm(n)
	mask := make([]bool, n)
	for _, i := range perm[:k] {
		mask[i] = true
	}
	return mask, nil
}

// DeadlineSelector is the FedCS-style policy of [38]: given a round
// deadline, admit the devices estimated to finish within it (estimating
// each device's time from its max frequency and its last observed — or
// long-run mean — bandwidth), always keeping at least MinClients so the
// round can proceed.
type DeadlineSelector struct {
	// Deadline is the target round duration in seconds.
	Deadline float64
	// MinClients floors the selection size.
	MinClients int
}

// NewDeadlineSelector validates the parameters.
func NewDeadlineSelector(deadline float64, minClients int) (*DeadlineSelector, error) {
	if deadline <= 0 {
		return nil, fmt.Errorf("sched: deadline %v must be positive", deadline)
	}
	if minClients < 1 {
		return nil, fmt.Errorf("sched: min clients %d must be at least 1", minClients)
	}
	return &DeadlineSelector{Deadline: deadline, MinClients: minClients}, nil
}

// Name implements Selector.
func (*DeadlineSelector) Name() string { return "deadline" }

// Select implements Selector.
func (d *DeadlineSelector) Select(ctx Context) ([]bool, error) {
	n := ctx.Sys.N()
	type est struct {
		dev  int
		time float64
	}
	ests := make([]est, n)
	for i, dev := range ctx.Sys.Devices {
		bw := 0.0
		if ctx.LastBW != nil && i < len(ctx.LastBW) {
			bw = ctx.LastBW[i]
		}
		if bw <= 0 {
			bw = ctx.Sys.Traces[i].Summary().Mean
		}
		if bw <= 0 {
			bw = 1
		}
		ests[i] = est{dev: i, time: dev.Workload(ctx.Sys.Tau)/dev.MaxFreqHz + ctx.Sys.ModelBytes/bw}
	}
	sort.Slice(ests, func(a, b int) bool { return ests[a].time < ests[b].time })
	mask := make([]bool, n)
	admitted := 0
	for _, e := range ests {
		if e.time <= d.Deadline || admitted < d.MinClients {
			mask[e.dev] = true
			admitted++
		}
	}
	return mask, nil
}

// SelectionRound is one iteration's outcome under selection.
type SelectionRound struct {
	Iter         fl.IterationStats
	Participants int
}

// RunWithSelection drives a scheduler and a selector together for `iters`
// rounds and returns both the iteration stats and participation counts.
func RunWithSelection(sys *fl.System, s Scheduler, sel Selector, startTime float64, iters int) ([]SelectionRound, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("sched: iteration count %d must be positive", iters)
	}
	ses, err := fl.NewSession(sys, startTime)
	if err != nil {
		return nil, err
	}
	out := make([]SelectionRound, 0, iters)
	for k := 0; k < iters; k++ {
		ctx := Context{Sys: sys, Clock: ses.Clock, Iter: k, LastBW: ses.LastBandwidths()}
		mask, err := sel.Select(ctx)
		if err != nil {
			return nil, fmt.Errorf("sched: selector %s at iteration %d: %w", sel.Name(), k, err)
		}
		freqs, err := s.Frequencies(ctx)
		if err != nil {
			return nil, fmt.Errorf("sched: %s at iteration %d: %w", s.Name(), k, err)
		}
		ses.Opts.Participants = mask
		it, err := ses.Step(freqs)
		if err != nil {
			return nil, err
		}
		out = append(out, SelectionRound{Iter: it, Participants: len(fl.Participants(mask))})
	}
	return out, nil
}

// SelectionSummary aggregates a RunWithSelection trace.
type SelectionSummary struct {
	// MeanCost, MeanTime, MeanEnergy mirror the scheduler comparisons.
	MeanCost, MeanTime, MeanEnergy float64
	// MeanParticipants is the average round size.
	MeanParticipants float64
	// UpdatesPerSecond is total participant-updates over total wall-clock:
	// selection trades per-round breadth for round speed.
	UpdatesPerSecond float64
}

// Summarize reduces selection rounds to the summary metrics.
func Summarize(rounds []SelectionRound) SelectionSummary {
	if len(rounds) == 0 {
		return SelectionSummary{}
	}
	var costs, times, energies, parts []float64
	var updates, elapsed float64
	for _, r := range rounds {
		costs = append(costs, r.Iter.Cost)
		times = append(times, r.Iter.Duration)
		energies = append(energies, r.Iter.ComputeEnergy)
		parts = append(parts, float64(r.Participants))
		updates += float64(r.Participants)
		elapsed += r.Iter.Duration
	}
	sum := SelectionSummary{
		MeanCost:         stats.Mean(costs),
		MeanTime:         stats.Mean(times),
		MeanEnergy:       stats.Mean(energies),
		MeanParticipants: stats.Mean(parts),
	}
	if elapsed > 0 {
		sum.UpdatesPerSecond = updates / elapsed
	}
	return sum
}
