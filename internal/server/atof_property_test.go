//go:build !race

package server

import (
	"math"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"
)

// The property test checks no concurrency and takes ten times as long under
// the race detector (17 s), so race builds leave it out, as they leave out
// the allocation tests.

// floatRuns counts TestFloatMatchesParseFloat's runs in this process, so
// that each run of go test -count N draws fresh inputs.
var floatRuns atomic.Int64

// TestFloatMatchesParseFloat is the decoder's property test: every generated
// JSON number decodes to strconv.ParseFloat's Float64bits, and is rejected
// exactly where ParseFloat reports a range error. It checks 1M inputs:
// shortest and fixed-precision encodings of random float64 bits, random
// 1-40-digit numbers with and without a fraction and with exponents up to
// ±400. Each run in a process draws from a new seed, so -count 100 checks
// 100M distinct inputs.
func TestFloatMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(floatRuns.Add(1)))
	var b []byte
	const inputs = 1 << 20
	for n := 0; n < inputs; n++ {
		switch n % 4 {
		case 0, 1:
			f, format := math.Float64frombits(rng.Uint64()), "eg"[rng.Intn(2)]
			if rng.Intn(2) == 0 {
				// Values shaped like a fleet's bandwidths and plans. Only
				// these are written as 'f': random bits would print hundreds
				// of fixed-point digits, slow to print and to parse.
				f, format = rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(20)-4)), "efg"[rng.Intn(3)]
			}
			if math.IsNaN(f) || math.IsInf(f, 0) {
				f = rng.NormFloat64()
			}
			prec := -1
			if n%4 == 1 {
				prec = rng.Intn(26)
			}
			b = strconv.AppendFloat(b[:0], f, format, prec, 64)
		default:
			b = appendRandomNumber(b[:0], rng)
		}
		checkFloat(t, string(b))
	}
}

// appendRandomNumber appends a JSON number of 1-40 random digits, with a
// fraction half the time and an exponent in [-400, 400] half the time.
func appendRandomNumber(b []byte, rng *rand.Rand) []byte {
	if rng.Intn(2) == 0 {
		b = append(b, '-')
	}
	digits := 1 + rng.Intn(40)
	frac := 0
	if rng.Intn(2) == 0 {
		frac = 1 + rng.Intn(digits)
	}
	// Runs of zeros and nines make the rounding close.
	digit := func() byte {
		switch rng.Intn(4) {
		case 0:
			return '0'
		case 1:
			return '9'
		}
		return byte('0' + rng.Intn(10))
	}
	if frac == digits {
		b = append(b, '0')
	} else {
		b = append(b, byte('1'+rng.Intn(9)))
		for i := 1; i < digits-frac; i++ {
			b = append(b, digit())
		}
	}
	if frac > 0 {
		b = append(b, '.')
		for i := 0; i < frac; i++ {
			b = append(b, digit())
		}
	}
	if rng.Intn(2) == 0 {
		b = append(b, "eE"[rng.Intn(2)])
		b = append(b, []string{"", "+", "-"}[rng.Intn(3)]...)
		b = strconv.AppendInt(b, int64(rng.Intn(401)), 10)
	}
	return b
}
