package fl

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/trace"
)

// testSystem builds a deterministic 3-device system on constant-bandwidth
// traces so expected times can be computed by hand.
func testSystem() *System {
	devs := []*device.Device{
		{ID: 0, DataBits: 80 * device.BitsPerMB, CyclesPerBit: 20, MaxFreqHz: 2 * device.GHz, Alpha: 2e-28},
		{ID: 1, DataBits: 60 * device.BitsPerMB, CyclesPerBit: 15, MaxFreqHz: 1.5 * device.GHz, Alpha: 2e-28},
		{ID: 2, DataBits: 50 * device.BitsPerMB, CyclesPerBit: 10, MaxFreqHz: 1 * device.GHz, Alpha: 2e-28},
	}
	traces := []*trace.Trace{
		trace.MustNew("t0", 1, []float64{5e6}),
		trace.MustNew("t1", 1, []float64{2e6}),
		trace.MustNew("t2", 1, []float64{1e6}),
	}
	return &System{
		Devices:    devs,
		Traces:     traces,
		Tau:        1,
		ModelBytes: 10e6,
		Lambda:     1,
	}
}

func maxFreqs(s *System) []float64 {
	fs := make([]float64, s.N())
	for i, d := range s.Devices {
		fs[i] = d.MaxFreqHz
	}
	return fs
}

func TestValidate(t *testing.T) {
	s := testSystem()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
	muts := map[string]func(*System){
		"no devices":  func(s *System) { s.Devices = nil },
		"trace count": func(s *System) { s.Traces = s.Traces[:2] },
		"nil device":  func(s *System) { s.Devices[1] = nil },
		"nil trace":   func(s *System) { s.Traces[0] = nil },
		"bad device":  func(s *System) { s.Devices[0].Alpha = 0 },
		"zero tau":    func(s *System) { s.Tau = 0 },
		"zero model":  func(s *System) { s.ModelBytes = 0 },
		"neg lambda":  func(s *System) { s.Lambda = -1 },
	}
	for name, mut := range muts {
		s := testSystem()
		mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunIterationHandComputed(t *testing.T) {
	s := testSystem()
	it, err := s.RunIteration(0, 0, maxFreqs(s))
	if err != nil {
		t.Fatal(err)
	}
	// Device 0: t_cmp = 20·80·8e6 / 2e9 = 6.4 s; t_com = 10e6/5e6 = 2 s.
	d0 := it.Devices[0]
	if math.Abs(d0.ComputeTime-6.4) > 1e-9 || math.Abs(d0.ComTime-2) > 1e-9 {
		t.Fatalf("device 0 times = %v, %v", d0.ComputeTime, d0.ComTime)
	}
	// Device 1: t_cmp = 15·60·8e6 / 1.5e9 = 4.8 s; t_com = 10e6/2e6 = 5 s.
	d1 := it.Devices[1]
	if math.Abs(d1.TotalTime-9.8) > 1e-9 {
		t.Fatalf("device 1 total = %v", d1.TotalTime)
	}
	// Device 2: t_cmp = 10·50·8e6 / 1e9 = 4 s; t_com = 10 s ⇒ slowest, 14 s.
	d2 := it.Devices[2]
	if math.Abs(d2.TotalTime-14) > 1e-9 {
		t.Fatalf("device 2 total = %v", d2.TotalTime)
	}
	if math.Abs(it.Duration-14) > 1e-9 {
		t.Fatalf("T^k = %v, want 14", it.Duration)
	}
	// Idle time: T^k − T_i.
	if math.Abs(d0.IdleTime-(14-8.4)) > 1e-9 || math.Abs(d2.IdleTime) > 1e-12 {
		t.Fatalf("idle = %v, %v", d0.IdleTime, d2.IdleTime)
	}
	// Realized bandwidth matches the constant traces.
	if math.Abs(d0.AvgBandwidth-5e6) > 1e-3 {
		t.Fatalf("avg bw = %v", d0.AvgBandwidth)
	}
	// Cost = T + λ·ΣE with e_i = 0.
	wantE := 0.0
	for i, d := range s.Devices {
		wantE += d.ComputeEnergy(1, maxFreqs(s)[i])
	}
	if math.Abs(it.Cost-(14+wantE)) > 1e-9 {
		t.Fatalf("cost = %v, want %v", it.Cost, 14+wantE)
	}
	if Reward(it) != -it.Cost {
		t.Fatal("reward must negate cost (eq. 13)")
	}
}

func TestBarrierIsMax(t *testing.T) {
	// Property: T^k equals the max of per-device totals for random freqs.
	s := testSystem()
	f := func(a, b, c uint8) bool {
		fr := []float64{
			(0.2 + 0.8*float64(a)/255) * s.Devices[0].MaxFreqHz,
			(0.2 + 0.8*float64(b)/255) * s.Devices[1].MaxFreqHz,
			(0.2 + 0.8*float64(c)/255) * s.Devices[2].MaxFreqHz,
		}
		it, err := s.RunIteration(0, 0, fr)
		if err != nil {
			return false
		}
		want := 0.0
		for _, d := range it.Devices {
			if d.TotalTime > want {
				want = d.TotalTime
			}
		}
		return math.Abs(it.Duration-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSlowingNonCriticalDeviceKeepsDuration(t *testing.T) {
	// The paper's core insight: lowering a fast device's frequency so that
	// it still finishes before the straggler leaves T^k unchanged but cuts
	// energy.
	s := testSystem()
	base, err := s.RunIteration(0, 0, maxFreqs(s))
	if err != nil {
		t.Fatal(err)
	}
	// Device 0 finishes at 8.4 s vs barrier 14 s. Slow it so t_cmp grows by
	// ≤ the idle slack.
	fr := maxFreqs(s)
	fr[0] = fr[0] * 0.6 // t_cmp: 6.4 → 10.67, total 12.67 < 14
	slowed, err := s.RunIteration(0, 0, fr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slowed.Duration-base.Duration) > 1e-9 {
		t.Fatalf("duration changed: %v → %v", base.Duration, slowed.Duration)
	}
	if slowed.ComputeEnergy >= base.ComputeEnergy {
		t.Fatalf("energy did not drop: %v → %v", base.ComputeEnergy, slowed.ComputeEnergy)
	}
	if slowed.Cost >= base.Cost {
		t.Fatalf("cost did not drop: %v → %v", base.Cost, slowed.Cost)
	}
}

func TestRunIterationErrors(t *testing.T) {
	s := testSystem()
	if _, err := s.RunIteration(0, 0, []float64{1e9}); err == nil {
		t.Fatal("wrong frequency count accepted")
	}
	bad := maxFreqs(s)
	bad[0] = 0
	if _, err := s.RunIteration(0, 0, bad); err == nil {
		t.Fatal("zero frequency accepted")
	}
	bad[0] = 10 * device.GHz
	if _, err := s.RunIteration(0, 0, bad); err == nil {
		t.Fatal("over-max frequency accepted")
	}
	// Dead uplink propagates the trace error.
	s2 := testSystem()
	s2.Traces[2] = trace.MustNew("dead", 1, []float64{0})
	if _, err := s2.RunIteration(0, 0, maxFreqs(s2)); err == nil {
		t.Fatal("dead uplink should error")
	}
}

func TestSessionClockTelescopes(t *testing.T) {
	// Eq. (11): t^{k+1} = t^k + T^k, so the final clock is the start plus
	// the sum of iteration durations.
	s := testSystem()
	ses, err := NewSession(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for k := 0; k < 5; k++ {
		it, err := ses.Step(maxFreqs(s))
		if err != nil {
			t.Fatal(err)
		}
		if it.Index != k {
			t.Fatalf("iteration index = %d want %d", it.Index, k)
		}
		sum += it.Duration
	}
	if math.Abs(ses.Clock-(100+sum)) > 1e-9 {
		t.Fatalf("clock = %v, want %v", ses.Clock, 100+sum)
	}
	if ses.K() != 5 {
		t.Fatalf("K = %d", ses.K())
	}
}

func TestSessionTotalCostAndBandwidths(t *testing.T) {
	s := testSystem()
	ses, _ := NewSession(s, 0)
	if ses.LastBandwidths() != nil {
		t.Fatal("LastBandwidths before any iteration should be nil")
	}
	var want float64
	for k := 0; k < 3; k++ {
		it, err := ses.Step(maxFreqs(s))
		if err != nil {
			t.Fatal(err)
		}
		want += it.Cost
	}
	var total float64
	for _, it := range ses.History {
		total += it.Cost
	}
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("History cost = %v want %v", total, want)
	}
	bw := ses.LastBandwidths()
	if len(bw) != 3 || math.Abs(bw[0]-5e6) > 1e-3 {
		t.Fatalf("LastBandwidths = %v", bw)
	}
}

func TestNewSessionValidation(t *testing.T) {
	s := testSystem()
	if _, err := NewSession(s, -1); err == nil {
		t.Fatal("negative start accepted")
	}
	if _, err := NewSession(s, math.NaN()); err == nil {
		t.Fatal("NaN start accepted")
	}
	s.Tau = 0
	if _, err := NewSession(s, 0); err == nil {
		t.Fatal("invalid system accepted")
	}
}

func TestVaryingBandwidthAffectsComTime(t *testing.T) {
	// Uploading across a bandwidth drop takes longer than the naive
	// ξ/B(start) estimate — the continuous-time model of eq. (3).
	s := testSystem()
	s.Traces[0] = trace.MustNew("drop", 1, []float64{5e6, 5e6, 5e6, 5e6, 5e6, 5e6, 5e6, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5, 5e6, 5e6, 5e6, 5e6})
	it, err := s.RunIteration(0, 0, maxFreqs(s))
	if err != nil {
		t.Fatal(err)
	}
	d0 := it.Devices[0]
	// Upload starts at 6.4 s with 0.6 s of 5 MB/s (3 MB), then hits the
	// 0.1 MB/s hole: far longer than the naive 2 s.
	if d0.ComTime <= 2 {
		t.Fatalf("com time %v should exceed naive estimate through a fade", d0.ComTime)
	}
	if d0.AvgBandwidth >= 5e6 {
		t.Fatalf("avg bandwidth %v should reflect the fade", d0.AvgBandwidth)
	}
}

func TestTxEnergyAccounting(t *testing.T) {
	s := testSystem()
	for _, d := range s.Devices {
		d.TxEnergyPerSec = 0.1
	}
	it, err := s.RunIteration(0, 0, maxFreqs(s))
	if err != nil {
		t.Fatal(err)
	}
	if it.TxEnergy <= 0 {
		t.Fatal("tx energy should be positive when e_i > 0")
	}
	wantTx := 0.1 * (2 + 5 + 10.0)
	if math.Abs(it.TxEnergy-wantTx) > 1e-9 {
		t.Fatalf("tx energy = %v want %v", it.TxEnergy, wantTx)
	}
	if math.Abs(it.TotalEnergy()-(it.ComputeEnergy+it.TxEnergy)) > 1e-12 {
		t.Fatal("TotalEnergy mismatch")
	}
	if math.Abs(it.Cost-(it.Duration+s.Lambda*it.TotalEnergy())) > 1e-9 {
		t.Fatal("cost must include tx energy")
	}
}

func TestFrequencyMonotonicityProperty(t *testing.T) {
	// Raising any single device's frequency never lengthens the iteration
	// (T^k is a max of terms that are non-increasing in δ_i) and never
	// lowers the computational energy.
	s := testSystem()
	f := func(dev uint8, loFrac, hiFrac uint8) bool {
		i := int(dev) % s.N()
		lo := 0.2 + 0.7*float64(loFrac)/255
		hi := lo + (1-lo)*float64(hiFrac)/255
		base := maxFreqs(s)
		base[i] = lo * s.Devices[i].MaxFreqHz
		itLo, err := s.RunIteration(0, 0, base)
		if err != nil {
			return false
		}
		base[i] = hi * s.Devices[i].MaxFreqHz
		itHi, err := s.RunIteration(0, 0, base)
		if err != nil {
			return false
		}
		return itHi.Duration <= itLo.Duration+1e-9 &&
			itHi.ComputeEnergy >= itLo.ComputeEnergy-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIdleTimeNonNegativeProperty(t *testing.T) {
	// Idle time T^k − T_i^k is non-negative for every device, and exactly
	// zero for at least one (the straggler).
	s := testSystem()
	f := func(a, b, c uint8) bool {
		fr := []float64{
			(0.2 + 0.8*float64(a)/255) * s.Devices[0].MaxFreqHz,
			(0.2 + 0.8*float64(b)/255) * s.Devices[1].MaxFreqHz,
			(0.2 + 0.8*float64(c)/255) * s.Devices[2].MaxFreqHz,
		}
		it, err := s.RunIteration(0, 0, fr)
		if err != nil {
			return false
		}
		zeroSeen := false
		for _, d := range it.Devices {
			if d.IdleTime < -1e-9 {
				return false
			}
			if d.IdleTime < 1e-9 {
				zeroSeen = true
			}
		}
		return zeroSeen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
