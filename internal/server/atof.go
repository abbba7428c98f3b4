package server

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// This file converts the numbers DecodeDecideRequest scans to float64, with
// strconv.ParseFloat's bits, from the state the scanner gathers in its one
// pass over a number. It runs the two fast paths of strconv's atof64 in its
// order: the exact float path, then the Eisel-Lemire algorithm. Where both
// decline, the caller parses the number's bytes with strconv.ParseFloat.
//
// atof64exact and eiselLemire64 are ported from the Go standard library
// (src/strconv/atof.go and src/strconv/eisel_lemire.go, Go 1.24): Copyright
// 2009 and 2020 The Go Authors, under the BSD-style license in Go's LICENSE
// file. The Eisel-Lemire algorithm is described at
// https://nigeltao.github.io/blog/2020/eisel-lemire.html; the terse comments
// in eiselLemire64 refer to that post's sections.

// decimal is a number as strconv's readFloat leaves it: ±mant·10^exp, where
// mant holds the first 19 significant digits and trunc records a nonzero
// digit after them.
type decimal struct {
	mant  uint64
	exp   int
	neg   bool
	trunc bool
}

// maxMantDigits is how many digits mant holds: 10^19 fits in a uint64.
const maxMantDigits = 19

// float64 converts d as strconv's atof64 does before its slow path, which
// ok false leaves to the caller.
func (d decimal) float64() (f float64, ok bool) {
	if !d.trunc {
		if f, ok := atof64exact(d.mant, d.exp, d.neg); ok {
			return f, true
		}
	}
	if f, ok = eiselLemire64(d.mant, d.exp, d.neg); !ok || !d.trunc {
		return f, ok
	}
	// The digits cut from the mantissa may still round to f: confirm by
	// converting its upper bound.
	fUp, ok := eiselLemire64(d.mant+1, d.exp, d.neg)
	return f, ok && f == fUp
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// atof64exact converts mantissa·10^exp in float arithmetic where that is
// correctly rounded: an exact integer, times or divided by an exact power
// of ten.
func atof64exact(mantissa uint64, exp int, neg bool) (f float64, ok bool) {
	if mantissa>>52 != 0 {
		return
	}
	f = float64(mantissa)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	// Exact integers are <= 10^15; exact powers of ten are <= 10^22.
	case exp > 0 && exp <= 15+22:
		// A large exponent with few digits moves zeros into the integer.
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return
		}
		return f * float64pow10[exp], true
	case exp < 0 && exp >= -22:
		return f / float64pow10[-exp], true
	}
	return
}

// The rows of the powers-of-ten table: 10^minExp10 … 10^maxExp10.
const (
	minExp10 = -348
	maxExp10 = +347
)

// pow10Table holds, for each power of ten in [minExp10, maxExp10], its
// 128-bit mantissa rounded down, as {low, high} 64-bit halves with the top
// bit of high set. The binary exponents are implied by a linear expression
// with slope 217706/65536 ≈ log2(10).
type pow10Table [maxExp10 - minExp10 + 1][2]uint64

// powersOfTen returns the table, built on first use.
var powersOfTen = sync.OnceValue(buildPowersOfTen)

// buildPowersOfTen computes the table that strconv lists as literals
// (detailedPowersOfTen) with math/big, in about 0.3 ms.
func buildPowersOfTen() *pow10Table {
	t := new(pow10Table)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	put := func(e int, m *big.Int) {
		var lo big.Int
		t[e-minExp10] = [2]uint64{lo.And(m, mask).Uint64(), new(big.Int).Rsh(m, 64).Uint64()}
	}
	one, ten := big.NewInt(1), big.NewInt(10)
	p := big.NewInt(1) // 10^e
	for e := 0; e <= maxExp10; e, p = e+1, p.Mul(p, ten) {
		// Shift 10^e to 128 significant bits, truncating.
		m := new(big.Int)
		if s := p.BitLen() - 128; s > 0 {
			m.Rsh(p, uint(s))
		} else {
			m.Lsh(p, uint(-s))
		}
		put(e, m)
	}
	p.SetInt64(10) // 10^-e
	for e := -1; e >= minExp10; e, p = e-1, p.Mul(p, ten) {
		// 2^(127+len(p)) / p lies strictly between 2^127 and 2^128, as p is
		// not a power of two, so its floor has 128 significant bits.
		m := new(big.Int).Lsh(one, uint(127+p.BitLen()))
		put(e, m.Quo(m, p))
	}
	return t
}

// eiselLemire64 converts man·10^exp10 to the nearest float64, or reports
// !ok where the algorithm cannot decide (a halfway case, or a result
// outside the normal range).
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}
	pow := &powersOfTen()[exp10-minExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// Zero or underflow of retExp2 (a uint64) means the subnormal range;
	// 0x7FF or above means Inf/NaN. Either way strconv's slow path decides.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
