// Package fault defines seeded, reproducible device-fault processes for the
// federated-learning simulator. Real mobile fleets violate the paper's
// implicit assumption that every device survives every iteration: devices
// crash and rejoin (churn), uploads black out and must be retried, and
// background load transiently inflates the per-bit CPU cost c_i. Each
// process here is driven by counter-based hashed uniforms — the fault state
// of device i in iteration k is a pure function of (seed, i, k) — so a fault
// schedule is bit-reproducible regardless of query order, worker count, or
// how far it has been materialized.
//
// A Schedule composes with the fl engine through fl.IterOptions; a nil
// schedule (or a zero Config) leaves the fault-free path untouched.
package fault

import (
	"fmt"
	"math"
)

// Config parameterizes the three fault processes. The zero value disables
// everything.
type Config struct {
	// CrashProb is the per-iteration probability that an up device crashes
	// (Markov up→down transition). A down device neither computes, uploads,
	// nor burns energy; it is masked from the MDP state.
	CrashProb float64
	// RejoinProb is the per-iteration probability that a down device comes
	// back (Markov down→up transition). It must be positive when CrashProb
	// is, or a crashed device would never return.
	RejoinProb float64
	// BlackoutProb is the per-attempt probability that a device's model
	// upload fails outright (a zero-bandwidth blackout) and must be retried
	// after a backoff wait. Attempts fail independently up to MaxRetries.
	BlackoutProb float64
	// MaxRetries bounds the number of failed upload attempts per iteration
	// (0 with BlackoutProb > 0 defaults to DefaultMaxRetries).
	MaxRetries int
	// StragglerProb is the per-iteration probability of a transient compute
	// spike: the device's effective workload (τ·c_i·D_i) is multiplied by
	// StragglerMult for that iteration, stretching both compute time and
	// compute energy.
	StragglerProb float64
	// StragglerMult is the workload multiplier applied during a spike
	// (must be ≥ 1; 0 with StragglerProb > 0 defaults to
	// DefaultStragglerMult).
	StragglerMult float64
}

// Defaults applied when the corresponding probability is enabled but the
// magnitude knob is left zero.
const (
	DefaultMaxRetries    = 3
	DefaultStragglerMult = 4.0
)

// Validate checks the configuration.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"crash probability", c.CrashProb},
		{"rejoin probability", c.RejoinProb},
		{"blackout probability", c.BlackoutProb},
		{"straggler probability", c.StragglerProb},
	} {
		if p.v < 0 || p.v > 1 || math.IsNaN(p.v) {
			return fmt.Errorf("fault: %s %v outside [0,1]", p.name, p.v)
		}
	}
	if c.CrashProb > 0 && c.RejoinProb == 0 {
		return fmt.Errorf("fault: crash probability %v with zero rejoin probability (crashed devices would never return)", c.CrashProb)
	}
	if c.BlackoutProb >= 1 {
		return fmt.Errorf("fault: blackout probability %v must be below 1 (uploads must eventually succeed)", c.BlackoutProb)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("fault: negative retry bound %d", c.MaxRetries)
	}
	if c.StragglerMult != 0 && (c.StragglerMult < 1 || math.IsNaN(c.StragglerMult) || math.IsInf(c.StragglerMult, 0)) {
		return fmt.Errorf("fault: straggler multiplier %v must be ≥ 1", c.StragglerMult)
	}
	return nil
}

// Enabled reports whether any fault process is active.
func (c Config) Enabled() bool {
	return c.CrashProb > 0 || c.BlackoutProb > 0 || c.StragglerProb > 0
}

// maxRetries resolves the retry bound default.
func (c Config) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return DefaultMaxRetries
}

// stragglerMult resolves the spike multiplier default.
func (c Config) stragglerMult() float64 {
	if c.StragglerMult != 0 {
		return c.StragglerMult
	}
	return DefaultStragglerMult
}

// DeviceFault is the realized fault state of one device in one iteration.
// The zero value means "healthy".
type DeviceFault struct {
	// Down marks the device as crashed for the whole iteration.
	Down bool
	// FailedUploads is the number of upload attempts that black out before
	// one succeeds (each costs a backoff wait in the fl engine).
	FailedUploads int
	// ComputeMult scales the device's effective workload this iteration
	// (1 = no spike).
	ComputeMult float64
}

// Schedule materializes the fault processes for a fleet: At(k, i) is device
// i's fault state in iteration k. Rows are computed lazily and memoized —
// the Markov crash chain needs its predecessor — but every entry is a pure
// function of (cfg, seed, i, k), so two schedules with the same inputs agree
// entry-for-entry no matter how they are queried. A Schedule is not safe for
// concurrent use; clone per goroutine (each training episode builds its own).
type Schedule struct {
	cfg  Config
	seed int64
	n    int
	rows [][]DeviceFault
}

// NewSchedule builds a schedule for n devices. All devices start up.
func NewSchedule(cfg Config, n int, seed int64) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("fault: schedule for %d devices", n)
	}
	return &Schedule{cfg: cfg, seed: seed, n: n}, nil
}

// MustNewSchedule is NewSchedule, panicking on error (tests and literals).
func MustNewSchedule(cfg Config, n int, seed int64) *Schedule {
	s, err := NewSchedule(cfg, n, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the fleet size the schedule was built for.
func (s *Schedule) N() int { return s.n }

// Config returns the generating configuration.
func (s *Schedule) Config() Config { return s.cfg }

// At returns device i's fault state in iteration k (k ≥ 0), materializing
// rows up to k on first access.
func (s *Schedule) At(k, i int) DeviceFault {
	if k < 0 || i < 0 || i >= s.n {
		panic(fmt.Sprintf("fault: At(%d, %d) outside schedule (n=%d)", k, i, s.n))
	}
	s.extend(k)
	return s.rows[k][i]
}

// Down returns the per-device down mask of iteration k (freshly allocated).
func (s *Schedule) Down(k int) []bool {
	s.extend(k)
	mask := make([]bool, s.n)
	for i, df := range s.rows[k] {
		mask[i] = df.Down
	}
	return mask
}

// extend materializes rows up to and including iteration k.
func (s *Schedule) extend(k int) {
	for len(s.rows) <= k {
		iter := len(s.rows)
		row := make([]DeviceFault, s.n)
		for i := range row {
			row[i] = s.state(iter, i)
		}
		s.rows = append(s.rows, row)
	}
}

// Streams separating the uniform draws of the three processes. Blackout
// attempts use stream streamBlackout+r for attempt r.
const (
	streamCrash     = 0
	streamStraggler = 1
	streamBlackout  = 8
)

// state computes device i's fault state in iteration `iter`, assuming rows
// 0 … iter-1 are materialized (the crash chain reads its predecessor).
func (s *Schedule) state(iter, i int) DeviceFault {
	df := DeviceFault{ComputeMult: 1}
	// Markov on/off crash chain: all devices start up at iteration 0; the
	// transition into iteration k ≥ 1 is decided by one uniform.
	if s.cfg.CrashProb > 0 && iter > 0 {
		prevDown := s.rows[iter-1][i].Down
		u := s.uniform(iter, i, streamCrash)
		if prevDown {
			df.Down = u >= s.cfg.RejoinProb
		} else {
			df.Down = u < s.cfg.CrashProb
		}
	}
	if df.Down {
		return df
	}
	if s.cfg.BlackoutProb > 0 {
		for r := 0; r < s.cfg.maxRetries(); r++ {
			if s.uniform(iter, i, streamBlackout+r) >= s.cfg.BlackoutProb {
				break
			}
			df.FailedUploads++
		}
	}
	if s.cfg.StragglerProb > 0 && s.uniform(iter, i, streamStraggler) < s.cfg.StragglerProb {
		df.ComputeMult = s.cfg.stragglerMult()
	}
	return df
}

// uniform returns a deterministic draw in [0, 1) keyed by (seed, iter,
// device, stream) via a splitmix64-style mix, matching the counter-based
// seeding idiom of the parallel rollout layer.
func (s *Schedule) uniform(iter, i, stream int) float64 {
	x := uint64(s.seed)
	x += 0x9e3779b97f4a7c15 * uint64(iter+1)
	x += 0xbf58476d1ce4e9b9 * uint64(i+1)
	x += 0x94d049bb133111eb * uint64(stream+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
