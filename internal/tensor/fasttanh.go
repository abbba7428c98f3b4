package tensor

// tanhClamp is the saturation bound of the float64 rational tanh: beyond it
// the polynomial ratio is no longer monotone, and tanh is already within
// 3e-7 of ±1, so the function saturates to exactly ±1 there. Exact
// saturation matters to callers that drive units hard negative on purpose —
// a poisoned output bias must pin its action to the floor, not to
// floor±3e-7.
const tanhClamp = 7.90531110763549805

// Coefficients of FastTanh's numerator (odd powers of x) and denominator
// (even powers), shared with the four-lane kernel's constant table.
const (
	tanhP13 = -2.76076847742355e-16
	tanhP11 = 2.00018790482477e-13
	tanhP9  = -8.60467152213735e-11
	tanhP7  = 5.12229709037114e-08
	tanhP5  = 1.48572235717979e-05
	tanhP3  = 6.37261928875436e-04
	tanhP1  = 4.89352455891786e-03
	tanhQ6  = 1.19825839466702e-06
	tanhQ4  = 1.18534705686654e-04
	tanhQ2  = 2.26843463243900e-03
	tanhQ0  = 4.89352518554385e-03
)

// FastTanh approximates tanh with the 13/6-degree rational minimax
// polynomial used by Eigen and XLA, evaluated in float64, saturating to
// exactly ±1 beyond ±tanhClamp. Maximum absolute error against math.Tanh is below 5e-7
// (pinned by TestFastTanhAccuracy), which is noise at training scale but
// roughly 3x faster than math.Tanh per call and branch-free inside the
// clamp. NaN propagates; FastTanh(0) == 0 exactly; the result is odd in x
// bit for bit because every term is odd.
func FastTanh(x float64) float64 {
	// Comparisons with NaN are false, so a NaN x falls through to the
	// polynomial and propagates.
	if x > tanhClamp {
		return 1
	} else if x < -tanhClamp {
		return -1
	}
	x2 := x * x
	p := tanhP13
	p = p*x2 + tanhP11
	p = p*x2 + tanhP9
	p = p*x2 + tanhP7
	p = p*x2 + tanhP5
	p = p*x2 + tanhP3
	p = p*x2 + tanhP1
	p = p * x
	q := tanhQ6
	q = q*x2 + tanhQ4
	q = q*x2 + tanhQ2
	q = q*x2 + tanhQ0
	return p / q
}

// FastTanhInto stores FastTanh(src[i]) into dst[i] for every i, bit for
// bit, four lanes at a time where the AVX kernel is available (DESIGN.md
// §15). dst and src must have equal length; they may be the same slice.
func FastTanhInto(dst, src []float64) {
	checkLen2(len(dst), len(src))
	fastTanhInto(dst, src)
}

func fastTanhIntoGeneric(dst, src []float64) {
	for i, x := range src {
		dst[i] = FastTanh(x)
	}
}
