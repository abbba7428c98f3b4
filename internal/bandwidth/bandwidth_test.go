package bandwidth

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProfilesValidate(t *testing.T) {
	for _, p := range []*Profile{Walking4G(), BusHSDPA(), Train4G(), Car4G(), Bicycle4G()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	for _, p := range WalkingProfiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	mk := func(mut func(*Profile)) *Profile {
		p := Walking4G()
		mut(p)
		return p
	}
	bad := map[string]*Profile{
		"no regimes":    mk(func(p *Profile) { p.Regimes = nil }),
		"rows mismatch": mk(func(p *Profile) { p.Trans = p.Trans[:2] }),
		"cols mismatch": mk(func(p *Profile) { p.Trans[0] = p.Trans[0][:2] }),
		"row not prob":  mk(func(p *Profile) { p.Trans[0][1] += 0.5 }),
		"negative prob": mk(func(p *Profile) { p.Trans[0][1] = -0.1; p.Trans[0][2] = 1.05 }),
		"bad regime":    mk(func(p *Profile) { p.Regimes[0].MeanHold = 0 }),
		"bad AR1":       mk(func(p *Profile) { p.AR1 = 1.0 }),
		"bad interval":  mk(func(p *Profile) { p.Interval = 0 }),
	}
	for name, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validation should fail", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Walking4G()
	a := p.MustGenerate("a", 100, 42)
	b := p.MustGenerate("b", 100, 42)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed must give identical traces")
		}
	}
	c := p.MustGenerate("c", 100, 43)
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different traces")
	}
}

func TestGenerateBounds(t *testing.T) {
	for _, p := range []*Profile{Walking4G(), BusHSDPA(), Train4G()} {
		tr := p.MustGenerate("b", 600, 7)
		for i, s := range tr.Samples {
			if s < p.Floor || (p.Cap > 0 && s > p.Cap) {
				t.Fatalf("%s sample %d = %v outside [%v, %v]", p.Name, i, s, p.Floor, p.Cap)
			}
		}
	}
}

func TestGenerateEnvelopeMatchesPaper(t *testing.T) {
	// Fig 2(a): walking 4G swings from <1 MB/s to ~9 MB/s.
	tr := Walking4G().MustGenerate("w", 3000, 11)
	s := tr.Summary()
	if s.Max < 6*MBps {
		t.Errorf("walking max %v never approaches the paper's high band", s.Max)
	}
	if s.Min > 1.5*MBps {
		t.Errorf("walking min %v never drops toward the paper's low band", s.Min)
	}
	// Fig 2(b): HSDPA bus lives in [0, 800] KB/s.
	tb := BusHSDPA().MustGenerate("b", 3000, 11)
	sb := tb.Summary()
	if sb.Max > 800*KBps {
		t.Errorf("bus max %v exceeds 800 KB/s", sb.Max)
	}
	if sb.Mean > 600*KBps || sb.Mean < 50*KBps {
		t.Errorf("bus mean %v implausible", sb.Mean)
	}
}

func TestShortTimescaleStability(t *testing.T) {
	// The paper's state design relies on bandwidth being "reasonably stable"
	// over a slot h of tens of seconds: adjacent 10 s slot averages should
	// be correlated far more than distant ones.
	tr := Walking4G().MustGenerate("s", 4000, 3)
	h := 10.0
	n := int(tr.Duration()/h) - 1
	slots := make([]float64, n)
	for j := 0; j < n; j++ {
		slots[j] = tr.Slot(j, h)
	}
	adj := autocorr(slots, 1)
	far := autocorr(slots, 12)
	if adj < 0.5 {
		t.Errorf("adjacent slot autocorrelation %v too low for the paper's assumption", adj)
	}
	if adj <= far {
		t.Errorf("autocorrelation should decay with lag: lag1=%v lag12=%v", adj, far)
	}
}

func autocorr(x []float64, lag int) float64 {
	n := len(x) - lag
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	var num, den float64
	for i := 0; i < n; i++ {
		num += (x[i] - mean) * (x[i+lag] - mean)
	}
	for _, v := range x {
		den += (v - mean) * (v - mean)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func TestGenerateErrors(t *testing.T) {
	p := Walking4G()
	if _, err := p.Generate("x", 0, 1); err == nil {
		t.Fatal("zero duration should error")
	}
	p.Interval = 0
	if _, err := p.Generate("x", 10, 1); err == nil {
		t.Fatal("invalid profile should error")
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate should panic on invalid profile")
		}
	}()
	p := Walking4G()
	p.Regimes = nil
	p.MustGenerate("x", 10, 1)
}

func TestWalkingProfilesDistinct(t *testing.T) {
	ps := WalkingProfiles()
	if len(ps) != 5 {
		t.Fatalf("want 5 profiles, got %d", len(ps))
	}
	means := map[float64]bool{}
	for _, p := range ps {
		means[p.Regimes[0].Mean] = true
	}
	if len(means) < 4 {
		t.Fatal("walking profiles should have distinct regime means")
	}
}

func TestGeneratedTraceFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := BusHSDPA().MustGenerate("q", 150, seed)
		for _, s := range tr.Samples {
			if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
