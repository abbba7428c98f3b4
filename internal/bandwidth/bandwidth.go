// Package bandwidth synthesizes uplink-bandwidth traces that stand in for
// the real-world datasets used by the paper (the Ghent 4G/LTE measurement
// campaign [26] and the Norwegian HSDPA bus logs [12]), which are not
// available offline.
//
// The generator is a regime-switching Markov model: the link occupies one of
// a few quality regimes (excellent/good/fair/poor/outage) for multi-second
// holding times, and within a regime the bandwidth follows a mean-reverting
// AR(1) walk. This reproduces the two properties the paper's DRL agent
// actually exploits — bandwidth is "reasonably stable on short timescales"
// (tens of seconds, [20][21]) yet swings across its whole range over minutes
// (Fig. 2) — while keeping everything deterministic under a seed. Real
// traces in the two-column CSV format load through internal/trace unchanged.
package bandwidth

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro/internal/par"
	"repro/internal/trace"
)

// Regime describes one Markov state of the link.
type Regime struct {
	// Name for debugging/reporting.
	Name string
	// Mean bandwidth in bytes/second while in this regime.
	Mean float64
	// Jitter is the relative std-dev of the AR(1) noise inside the regime.
	Jitter float64
	// MeanHold is the expected holding time in seconds (geometric dwell).
	MeanHold float64
}

// Profile parameterizes a generator: a set of regimes, a transition
// distribution, and global bounds.
type Profile struct {
	// Name of the profile (e.g. "walking-4g").
	Name string
	// Regimes in the Markov chain; at least one.
	Regimes []Regime
	// Trans[i][j] is the probability of moving to regime j when regime i's
	// dwell expires. Rows must sum to ~1.
	Trans [][]float64
	// Floor and Cap bound every sample (bytes/second), Cap ≤ 0 disables.
	Floor, Cap float64
	// AR1 is the within-regime mean-reversion coefficient in [0,1);
	// higher ⇒ smoother.
	AR1 float64
	// Interval is the sample spacing in seconds.
	Interval float64
	// Drift adds a slow non-stationary modulation on top of the regimes,
	// mirroring the route/time-of-day scale variation of real measurement
	// campaigns: regime means are multiplied by 1 + Amp·sin(2πt/Period + φ)
	// with a seed-dependent phase φ. Amp = 0 disables it.
	Drift Drift
}

// Drift parameterizes the slow modulation of a Profile.
type Drift struct {
	// Amp is the relative amplitude in [0, 1).
	Amp float64
	// PeriodSec is the modulation period in seconds (> 0 when Amp > 0).
	PeriodSec float64
}

// Validate checks that the profile is internally consistent.
func (p *Profile) Validate() error {
	if len(p.Regimes) == 0 {
		return fmt.Errorf("bandwidth profile %q: no regimes", p.Name)
	}
	if len(p.Trans) != len(p.Regimes) {
		return fmt.Errorf("bandwidth profile %q: transition matrix has %d rows, want %d",
			p.Name, len(p.Trans), len(p.Regimes))
	}
	for i, row := range p.Trans {
		if len(row) != len(p.Regimes) {
			return fmt.Errorf("bandwidth profile %q: row %d has %d cols", p.Name, i, len(row))
		}
		sum := 0.0
		for _, x := range row {
			if x < 0 {
				return fmt.Errorf("bandwidth profile %q: negative transition prob in row %d", p.Name, i)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("bandwidth profile %q: row %d sums to %v", p.Name, i, sum)
		}
	}
	for i, r := range p.Regimes {
		if r.Mean < 0 || r.MeanHold <= 0 || r.Jitter < 0 {
			return fmt.Errorf("bandwidth profile %q: regime %d invalid", p.Name, i)
		}
	}
	if p.AR1 < 0 || p.AR1 >= 1 {
		return fmt.Errorf("bandwidth profile %q: AR1 %v out of [0,1)", p.Name, p.AR1)
	}
	if p.Interval <= 0 {
		return fmt.Errorf("bandwidth profile %q: interval %v must be positive", p.Name, p.Interval)
	}
	if p.Drift.Amp < 0 || p.Drift.Amp >= 1 {
		return fmt.Errorf("bandwidth profile %q: drift amplitude %v outside [0,1)", p.Name, p.Drift.Amp)
	}
	if p.Drift.Amp > 0 && p.Drift.PeriodSec <= 0 {
		return fmt.Errorf("bandwidth profile %q: drift period %v must be positive", p.Name, p.Drift.PeriodSec)
	}
	return nil
}

// Generate produces a seeded trace of the given duration (seconds).
func (p *Profile) Generate(name string, durationSec float64, seed int64) (*trace.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := int(math.Ceil(durationSec / p.Interval))
	if n <= 0 {
		return nil, fmt.Errorf("bandwidth profile %q: duration %v too short", p.Name, durationSec)
	}
	rng := rand.New(rand.NewSource(seed))
	samples := make([]float64, n)

	regime := rng.Intn(len(p.Regimes))
	level := p.Regimes[regime].Mean
	dwell := p.drawDwell(rng, regime)
	phase := rng.Float64() * 2 * math.Pi

	// samples[i] holds step i's drift factor until step i overwrites it
	// with the sample. The factors draw no randomness, so computing them
	// in a loop of their own keeps the RNG stream, and every bit.
	if p.Drift.Amp > 0 {
		for i := range samples {
			t := float64(i) * p.Interval
			samples[i] = 1 + p.Drift.Amp*math.Sin(2*math.Pi*t/p.Drift.PeriodSec+phase)
		}
	} else {
		for i := range samples {
			samples[i] = 1
		}
	}

	r := &p.Regimes[regime]
	for i, mod := range samples {
		target := r.Mean * mod
		// Mean-reverting AR(1) around the (drift-modulated) regime mean.
		noise := rng.NormFloat64() * r.Jitter * noiseScale(target)
		level = p.AR1*level + (1-p.AR1)*target + noise
		x := level
		if x < p.Floor {
			x = p.Floor
		}
		if p.Cap > 0 && x > p.Cap {
			x = p.Cap
		}
		samples[i] = x

		dwell -= p.Interval
		if dwell <= 0 {
			regime = p.nextRegime(rng, regime)
			dwell = p.drawDwell(rng, regime)
			r = &p.Regimes[regime]
		}
	}
	return trace.New(name, p.Interval, samples)
}

// noiseScale is math.Max(target, 1) bit for bit, NaN and infinities
// included, as two inlined comparisons: on amd64 math.Max is an assembly
// call the compiler cannot inline, once per generated sample.
func noiseScale(target float64) float64 {
	if target > 1 {
		return target
	}
	if target != target {
		return math.NaN() // the NaN math.Max returns, whatever NaN came in
	}
	return 1
}

// MustGenerate is Generate, panicking on error.
func (p *Profile) MustGenerate(name string, durationSec float64, seed int64) *trace.Trace {
	tr, err := p.Generate(name, durationSec, seed)
	if err != nil {
		panic(err)
	}
	return tr
}

func (p *Profile) drawDwell(rng *rand.Rand, regime int) float64 {
	// Exponential dwell with the regime's mean holding time, truncated below
	// at one interval so every regime is visible in the trace.
	d := rng.ExpFloat64() * p.Regimes[regime].MeanHold
	if d < p.Interval {
		d = p.Interval
	}
	return d
}

func (p *Profile) nextRegime(rng *rand.Rand, cur int) int {
	u := rng.Float64()
	acc := 0.0
	row := p.Trans[cur]
	for j, pr := range row {
		acc += pr
		if u < acc {
			return j
		}
	}
	return len(row) - 1
}

const (
	// KBps and MBps convert the paper's reporting units to bytes/second.
	KBps = 1e3
	MBps = 1e6
)

// Walking4G models the Ghent walking scenario of Fig. 2(a): bandwidth
// fluctuating between under 1 MB/s and about 9 MB/s within a few hundred
// seconds.
func Walking4G() *Profile {
	return &Profile{
		Name: "walking-4g",
		Regimes: []Regime{
			{Name: "excellent", Mean: 8 * MBps, Jitter: 0.10, MeanHold: 14},
			{Name: "good", Mean: 5 * MBps, Jitter: 0.12, MeanHold: 16},
			{Name: "fair", Mean: 2.5 * MBps, Jitter: 0.15, MeanHold: 16},
			{Name: "poor", Mean: 0.6 * MBps, Jitter: 0.25, MeanHold: 12},
		},
		Trans: [][]float64{
			{0.00, 0.70, 0.25, 0.05},
			{0.30, 0.00, 0.55, 0.15},
			{0.15, 0.45, 0.00, 0.40},
			{0.05, 0.25, 0.70, 0.00},
		},
		Floor:    0.1 * MBps,
		Cap:      9.5 * MBps,
		AR1:      0.85,
		Interval: 1,
		Drift:    Drift{Amp: 0.5, PeriodSec: 2400},
	}
}

// BusHSDPA models the Norwegian HSDPA bus logs of Fig. 2(b): bandwidth in
// [0, 800] KB/s with frequent deep fades.
func BusHSDPA() *Profile {
	return &Profile{
		Name: "bus-hsdpa",
		Regimes: []Regime{
			{Name: "good", Mean: 650 * KBps, Jitter: 0.10, MeanHold: 20},
			{Name: "fair", Mean: 350 * KBps, Jitter: 0.15, MeanHold: 25},
			{Name: "poor", Mean: 120 * KBps, Jitter: 0.25, MeanHold: 15},
			{Name: "outage", Mean: 15 * KBps, Jitter: 0.40, MeanHold: 8},
		},
		Trans: [][]float64{
			{0.00, 0.70, 0.25, 0.05},
			{0.35, 0.00, 0.50, 0.15},
			{0.10, 0.50, 0.00, 0.40},
			{0.05, 0.25, 0.70, 0.00},
		},
		Floor:    5 * KBps,
		Cap:      800 * KBps,
		AR1:      0.80,
		Interval: 1,
		Drift:    Drift{Amp: 0.45, PeriodSec: 1800},
	}
}

// Train4G models a faster-moving scenario with deeper swings (tunnels).
func Train4G() *Profile {
	return &Profile{
		Name: "train-4g",
		Regimes: []Regime{
			{Name: "open", Mean: 6 * MBps, Jitter: 0.12, MeanHold: 40},
			{Name: "suburb", Mean: 3 * MBps, Jitter: 0.15, MeanHold: 30},
			{Name: "cutting", Mean: 1 * MBps, Jitter: 0.25, MeanHold: 15},
			{Name: "tunnel", Mean: 0.15 * MBps, Jitter: 0.40, MeanHold: 10},
		},
		Trans: [][]float64{
			{0.00, 0.70, 0.20, 0.10},
			{0.40, 0.00, 0.40, 0.20},
			{0.15, 0.45, 0.00, 0.40},
			{0.10, 0.30, 0.60, 0.00},
		},
		Floor:    0.02 * MBps,
		Cap:      9 * MBps,
		AR1:      0.82,
		Interval: 1,
		Drift:    Drift{Amp: 0.4, PeriodSec: 2100},
	}
}

// Car4G models the driving scenario: higher average, fast handovers.
func Car4G() *Profile {
	return &Profile{
		Name: "car-4g",
		Regimes: []Regime{
			{Name: "highway", Mean: 7 * MBps, Jitter: 0.10, MeanHold: 20},
			{Name: "urban", Mean: 4 * MBps, Jitter: 0.15, MeanHold: 15},
			{Name: "junction", Mean: 1.5 * MBps, Jitter: 0.22, MeanHold: 10},
		},
		Trans: [][]float64{
			{0.00, 0.75, 0.25},
			{0.45, 0.00, 0.55},
			{0.25, 0.75, 0.00},
		},
		Floor:    0.2 * MBps,
		Cap:      9.5 * MBps,
		AR1:      0.80,
		Interval: 1,
		Drift:    Drift{Amp: 0.45, PeriodSec: 1500},
	}
}

// Bicycle4G models the cycling scenario: mid-range with moderate variance.
func Bicycle4G() *Profile {
	return &Profile{
		Name: "bicycle-4g",
		Regimes: []Regime{
			{Name: "good", Mean: 6 * MBps, Jitter: 0.10, MeanHold: 30},
			{Name: "fair", Mean: 3.5 * MBps, Jitter: 0.12, MeanHold: 30},
			{Name: "poor", Mean: 1.2 * MBps, Jitter: 0.20, MeanHold: 20},
		},
		Trans: [][]float64{
			{0.00, 0.75, 0.25},
			{0.40, 0.00, 0.60},
			{0.20, 0.80, 0.00},
		},
		Floor:    0.15 * MBps,
		Cap:      9 * MBps,
		AR1:      0.85,
		Interval: 1,
		Drift:    Drift{Amp: 0.4, PeriodSec: 2000},
	}
}

// WalkingSet generates the bandwidth traces of an n-device fleet: trace i
// replays WalkingProfiles()[i mod 5], is seeded seed + i·10007 and is named
// fmt.Sprintf(nameFmt, profileName, i). The traces are generated, each with
// its prefix index, on the job pool at width GOMAXPROCS. A trace is a pure
// function of its index and each job writes only its own slot, so the set
// is bit-identical at any width (DESIGN.md §8); on failure WalkingSet
// returns the lowest failing index's error, as a serial loop would.
func WalkingSet(n int, nameFmt string, durationSec float64, seed int64) ([]*trace.Trace, error) {
	return generateSet(WalkingProfiles(), n, nameFmt, durationSec, seed, runtime.GOMAXPROCS(0))
}

// generateSet is WalkingSet over the given profiles at the given width.
func generateSet(profiles []*Profile, n int, nameFmt string, durationSec float64, seed int64, width int) ([]*trace.Trace, error) {
	traces := make([]*trace.Trace, n)
	err := par.Run(n, width, func(i int) error {
		p := profiles[i%len(profiles)]
		var err error
		traces[i], err = p.Generate(fmt.Sprintf(nameFmt, p.Name, i), durationSec, seed+int64(i)*10007)
		return err
	})
	if err != nil {
		return nil, err
	}
	return traces, nil
}

// WalkingProfiles returns the five distinct walking-style profiles the
// paper's 50-device simulation samples from ("we randomly select five
// walking datasets and let each mobile device randomly select one dataset").
func WalkingProfiles() []*Profile {
	base := []*Profile{Walking4G(), Walking4G(), Walking4G(), Walking4G(), Walking4G()}
	// Perturb the regime means so the five "datasets" are genuinely
	// different routes, as in the real measurement campaign.
	scales := []float64{1.0, 0.85, 1.1, 0.7, 0.95}
	for i, p := range base {
		p.Name = fmt.Sprintf("walking-4g-%d", i+1)
		for j := range p.Regimes {
			p.Regimes[j].Mean *= scales[i]
		}
	}
	return base
}
