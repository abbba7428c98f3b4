package fault

import (
	"testing"
)

func chaosConfig() Config {
	return Config{
		CrashProb:     0.15,
		RejoinProb:    0.5,
		BlackoutProb:  0.2,
		MaxRetries:    3,
		StragglerProb: 0.1,
		StragglerMult: 4,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"chaos", chaosConfig(), true},
		{"negative crash", Config{CrashProb: -0.1, RejoinProb: 0.5}, false},
		{"crash prob above one", Config{CrashProb: 1.5, RejoinProb: 0.5}, false},
		{"crash without rejoin", Config{CrashProb: 0.1}, false},
		{"certain blackout", Config{BlackoutProb: 1}, false},
		{"negative retries", Config{BlackoutProb: 0.1, MaxRetries: -1}, false},
		{"straggler mult below one", Config{StragglerProb: 0.1, StragglerMult: 0.5}, false},
		{"straggler defaults", Config{StragglerProb: 0.1}, true},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestZeroConfigAllHealthy(t *testing.T) {
	s := MustNewSchedule(Config{}, 5, 7)
	if s.Config().Enabled() {
		t.Fatal("zero config reported enabled")
	}
	for k := 0; k < 50; k++ {
		for i := 0; i < 5; i++ {
			if df := s.At(k, i); df.Down || df.FailedUploads != 0 || df.ComputeMult != 1 {
				t.Fatalf("device %d iter %d not healthy under zero config: %+v", i, k, df)
			}
		}
	}
}

func TestAllDevicesStartUp(t *testing.T) {
	s := MustNewSchedule(chaosConfig(), 10, 3)
	for i := 0; i < 10; i++ {
		if s.At(0, i).Down {
			t.Fatalf("device %d down at iteration 0", i)
		}
	}
}

// Same seed must yield the same schedule no matter the query order or how
// the lazy rows are grown — the core determinism contract.
func TestDeterminismAcrossQueryOrder(t *testing.T) {
	cfg := chaosConfig()
	const n, iters = 6, 120

	forward := MustNewSchedule(cfg, n, 42)
	var fwd []DeviceFault
	for k := 0; k < iters; k++ {
		for i := 0; i < n; i++ {
			fwd = append(fwd, forward.At(k, i))
		}
	}

	// Query the second schedule backwards (forces one big extension first),
	// then re-read forwards.
	backward := MustNewSchedule(cfg, n, 42)
	_ = backward.At(iters-1, 0)
	var bwd []DeviceFault
	for k := 0; k < iters; k++ {
		for i := 0; i < n; i++ {
			bwd = append(bwd, backward.At(k, i))
		}
	}

	for j := range fwd {
		if fwd[j] != bwd[j] {
			t.Fatalf("entry %d differs: forward %+v backward %+v", j, fwd[j], bwd[j])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := chaosConfig()
	a := MustNewSchedule(cfg, 8, 1)
	b := MustNewSchedule(cfg, 8, 2)
	diff := false
	for k := 0; k < 100 && !diff; k++ {
		for i := 0; i < 8; i++ {
			if a.At(k, i) != b.At(k, i) {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("seeds 1 and 2 produced identical 100-iteration schedules")
	}
}

// The Markov chain must actually visit both states and respect the chain
// structure (a device can only be down at k if the transition allows it).
func TestMarkovChainBehaves(t *testing.T) {
	cfg := Config{CrashProb: 0.3, RejoinProb: 0.4}
	s := MustNewSchedule(cfg, 4, 11)
	downSeen, upSeen, rejoins := false, false, 0
	for i := 0; i < 4; i++ {
		for k := 1; k < 300; k++ {
			cur, prev := s.At(k, i).Down, s.At(k-1, i).Down
			if cur {
				downSeen = true
			} else {
				upSeen = true
			}
			if prev && !cur {
				rejoins++
			}
		}
	}
	if !downSeen || !upSeen {
		t.Fatalf("chain degenerate: downSeen=%v upSeen=%v", downSeen, upSeen)
	}
	if rejoins == 0 {
		t.Fatal("no device ever rejoined over 300 iterations")
	}
}

func TestDownDeviceHasNoOtherFaults(t *testing.T) {
	s := MustNewSchedule(chaosConfig(), 6, 5)
	found := false
	for k := 0; k < 200; k++ {
		for i := 0; i < 6; i++ {
			df := s.At(k, i)
			if df.Down {
				found = true
				if df.FailedUploads != 0 || df.ComputeMult != 1 {
					t.Fatalf("down device %d iter %d carries other faults: %+v", i, k, df)
				}
			}
		}
	}
	if !found {
		t.Fatal("no crash observed in 200 iterations with CrashProb=0.15")
	}
}

func TestBlackoutRetriesBounded(t *testing.T) {
	cfg := Config{BlackoutProb: 0.6, MaxRetries: 2}
	s := MustNewSchedule(cfg, 5, 9)
	maxSeen := 0
	for k := 0; k < 300; k++ {
		for i := 0; i < 5; i++ {
			if f := s.At(k, i).FailedUploads; f > maxSeen {
				maxSeen = f
			}
		}
	}
	if maxSeen > 2 {
		t.Fatalf("failed uploads %d exceed MaxRetries 2", maxSeen)
	}
	if maxSeen == 0 {
		t.Fatal("no blackout observed with BlackoutProb=0.6")
	}
}

func TestStragglerDefaultsApplied(t *testing.T) {
	s := MustNewSchedule(Config{StragglerProb: 0.5}, 5, 13)
	spiked := false
	for k := 0; k < 100; k++ {
		for i := 0; i < 5; i++ {
			m := s.At(k, i).ComputeMult
			if m != 1 && m != DefaultStragglerMult {
				t.Fatalf("unexpected compute multiplier %v", m)
			}
			if m == DefaultStragglerMult {
				spiked = true
			}
		}
	}
	if !spiked {
		t.Fatal("no straggler spike observed with StragglerProb=0.5")
	}
}

func TestDownMask(t *testing.T) {
	s := MustNewSchedule(chaosConfig(), 7, 21)
	for k := 0; k < 50; k++ {
		mask := s.Down(k)
		if len(mask) != 7 {
			t.Fatalf("mask length %d", len(mask))
		}
		for i, down := range mask {
			if down != s.At(k, i).Down {
				t.Fatalf("mask[%d] disagrees with At at iter %d", i, k)
			}
		}
	}
}

func TestEmpiricalRatesRoughlyMatch(t *testing.T) {
	// With symmetric crash/rejoin probabilities the stationary down-fraction
	// is p/(p+q); check the long-run average lands near it.
	cfg := Config{CrashProb: 0.2, RejoinProb: 0.3}
	s := MustNewSchedule(cfg, 20, 77)
	const iters = 2000
	down := 0
	for k := 0; k < iters; k++ {
		for i := 0; i < 20; i++ {
			if s.At(k, i).Down {
				down++
			}
		}
	}
	frac := float64(down) / float64(iters*20)
	want := cfg.CrashProb / (cfg.CrashProb + cfg.RejoinProb)
	if frac < want-0.05 || frac > want+0.05 {
		t.Fatalf("stationary down-fraction %.3f, want ≈ %.3f", frac, want)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	s := MustNewSchedule(Config{}, 3, 1)
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d, %d) did not panic", c[0], c[1])
				}
			}()
			s.At(c[0], c[1])
		}()
	}
}

func TestNewScheduleRejectsBadInput(t *testing.T) {
	if _, err := NewSchedule(Config{}, 0, 1); err == nil {
		t.Fatal("zero devices accepted")
	}
	if _, err := NewSchedule(Config{CrashProb: 2, RejoinProb: 1}, 3, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}
