package server

import (
	"math"
	"strconv"
	"testing"
)

// TestPowersOfTenRows pins rows of the built table to strconv's literal
// table (detailedPowersOfTen in src/strconv/eisel_lemire.go).
func TestPowersOfTenRows(t *testing.T) {
	for _, row := range []struct {
		exp10  int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x0000000000000000, 0x8000000000000000},
		{23, 0x0000000000000000, 0xA968163F0A57B400},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := powersOfTen()[row.exp10-minExp10]; got != [2]uint64{row.lo, row.hi} {
			t.Errorf("1e%d: %#x, want {%#x, %#x}", row.exp10, got, row.lo, row.hi)
		}
	}
}

// floatCorners are numbers at the edges of the conversion: integers past
// 2^53, strconv's classic halfway cases, the smallest and largest normal
// and subnormal values and their neighbours, out-of-range exponents, signed
// zeros and mantissas of more than 19 digits whose cut digits decide the
// rounding.
var floatCorners = []string{
	"0", "-0", "0.0", "-0.0", "0e-500", "-0e500", "0.000000000000000000000000000000",
	"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"-9007199254740993", "18014398509481989", "1e23", "8.589973e9", "1e22", "1e15",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-324",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-1.7976931348623159e308",
	"1e308", "1e309", "1e400", "-1e400", "1e-400", "-1e-400", "1e99999999999999999999",
	"1e-99999999999999999999", "123456789012345678901234567890e-99999999999999999999",
	// 20 and more digits: the first 19 are a halfway case, the tail breaks it.
	"90071992547409930000", "90071992547409930001", "9007199254740993.0000000000000000001",
	"9007199254740993000000000000000000000000e-24", "9007199254740993000000000000000000000001e-24",
	"1000000000000000055511151231257827021181583404541015625e-54",
	"1000000000000000055511151231257827021181583404541015624e-54",
	"1000000000000000055511151231257827021181583404541015626e-54",
	"12345678901234567890", "12345678901234567891", "1234567890123456789.5",
	"99999999999999999999", "0.1000000000000000000000000000000000000001",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"7.2057594037927933e16", "3.0517578125e-5", "1e-6", "1e21", "0.000001", "123456789.123456789",
}

// checkFloat fails unless the decoder reads all of s to strconv.ParseFloat's
// Float64bits, or rejects it exactly where ParseFloat reports a range error.
func checkFloat(t *testing.T, s string) {
	t.Helper()
	d := decideDecoder{data: []byte(s)}
	got, err := d.float()
	want, werr := strconv.ParseFloat(s, 64)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%s: decoder error %v, ParseFloat error %v", s, err, werr)
	case err == nil && math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%s: decoded %v (%#x), ParseFloat %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	case err == nil && d.off != len(s):
		t.Fatalf("%s: scanned %d of %d bytes", s, d.off, len(s))
	}
}

// TestFloatCorners runs the conversion's corners.
func TestFloatCorners(t *testing.T) {
	for _, s := range floatCorners {
		checkFloat(t, s)
	}
}

// TestNumberGrammar holds the scanner to the JSON number grammar: what it
// rejects, and how far it reads what it accepts.
func TestNumberGrammar(t *testing.T) {
	for _, s := range []string{"", "-", "+1", ".5", "1.", "1.e5", "1e", "1e+", "-e5", "1ee5", "x", "-x", "1.x"} {
		d := decideDecoder{data: []byte(s)}
		if _, err := d.float(); err == nil {
			t.Errorf("%q: accepted", s)
		}
	}
	for s, end := range map[string]int{"01": 1, "-01": 2, "1.5.5": 3, "1e5e5": 3, "0x10": 1, "1_000": 1, "2E-3,": 4} {
		d := decideDecoder{data: []byte(s)}
		if _, err := d.float(); err != nil || d.off != end {
			t.Errorf("%q: read %d bytes (err %v), want %d", s, d.off, err, end)
		}
	}
}
