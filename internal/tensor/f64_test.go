package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// f64Values draws matrix entries for the kernel differential test. With
// special == 0 they are normal values with exact ±0 sprinkled in; otherwise
// each entry is, with probability special, one of ±0, ±Inf, NaN, a
// subnormal, a huge value (products overflow) or a tiny one (products
// underflow).
func f64Values(rng *rand.Rand, n int, special float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch {
		case rng.Float64() < special:
			v[i] = specialF64(rng)
		case rng.Intn(5) == 0:
			v[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

func specialF64(rng *rand.Rand) float64 {
	sign := float64(rng.Intn(2)*2 - 1)
	switch rng.Intn(7) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return math.Inf(int(sign))
	case 2:
		return math.NaN()
	case 3:
		return math.Copysign(math.Float64frombits(1+rng.Uint64()%(1<<52-1)), sign)
	case 4:
		return sign * 1e200 * (1 + rng.Float64())
	case 5:
		return sign * 1e-200 * (1 + rng.Float64())
	default:
		return sign * math.MaxFloat64
	}
}

// f64Matrix builds a rows×cols matrix of f64Values with about a quarter of
// its rows all zero, as clip-inactive PPO samples leave them.
func f64Matrix(rng *rand.Rand, rows, cols int, special float64) *Matrix {
	m := &Matrix{Rows: rows, Cols: cols, Data: f64Values(rng, rows*cols, special)}
	for i := 0; i < rows; i++ {
		if rng.Intn(4) == 0 {
			m.Row(i).Zero()
		}
	}
	return m
}

// guarded returns a copy of m whose data slice is followed in memory by
// sentinel elements, and a check that fails the test if a kernel wrote to
// them: a row's last columns must not spill past the slice.
func guarded(t *testing.T, m *Matrix) (*Matrix, func()) {
	const sentinel = 12345.0
	n := len(m.Data)
	buf := make([]float64, n+4)
	copy(buf, m.Data)
	for i := n; i < len(buf); i++ {
		buf[i] = sentinel
	}
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: buf[:n:n]}, func() {
		t.Helper()
		for _, v := range buf[n:] {
			if v != sentinel {
				t.Fatalf("a kernel wrote past the end of a %dx%d destination", m.Rows, m.Cols)
			}
		}
	}
}

// sameF64 reports whether got reproduces want: the same bits, or NaN where
// want is NaN. NaN payloads are not compared: x86 returns the first source
// operand's NaN, and Go does not fix the operand order of a commutative
// product or sum.
func sameF64(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

func checkSameF64(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameF64(got[i], want[i]) {
			t.Fatalf("%s: element %d: asm %v (%#016x), Go %v (%#016x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// f64Shapes lists (rows, k, cols) triples that cover every tail of the
// 16/8/4-wide kernels: k = 0..3, single rows, and random widths and k that
// are mostly no multiple of 4. Each subtest appends the shapes the engine
// runs.
func f64Shapes(rng *rand.Rand) [][3]int {
	var sh [][3]int
	for k := 0; k < 4; k++ {
		sh = append(sh, [3]int{1, k, 1}, [3]int{3, k, 21}, [3]int{9, k, 13})
	}
	for i := 0; i < 150; i++ {
		sh = append(sh, [3]int{1 + rng.Intn(20), rng.Intn(40), 1 + rng.Intn(40)})
	}
	return sh
}

var f64Densities = []float64{0, 0.003, 0.03, 0.3}

// TestF64KernelsMatchGo pins every float64 assembly kernel to the Go loop
// it replaces: non-NaN results must match bit for bit and NaN must appear
// exactly where the Go loop produces it, over random shapes, the engine's
// shapes, and inputs holding ±0, ±Inf, NaN, subnormals, overflowing
// products and all-zero rows.
func TestF64KernelsMatchGo(t *testing.T) {
	if !useF64Asm {
		t.Skip("the float64 assembly kernels are not active in this build")
	}
	t.Run("MatVec", func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		shapes := append(f64Shapes(rng), [3]int{64, 6000, 1}, [3]int{64, 18, 1}, [3]int{3, 64, 1}, [3]int{1, 64, 1})
		for _, sh := range shapes {
			rows, k := sh[0], sh[1]
			for _, sp := range f64Densities {
				m := f64Matrix(rng, rows, k, sp)
				x := f64Values(rng, k, sp)
				got, want := Vector(f64Values(rng, rows, 0.5)), NewVector(rows) // stale got
				MatVec(got, m, x)
				matVecGeneric(want, m, x)
				checkSameF64(t, fmt.Sprintf("%dx%d density %v", rows, k, sp), got, want)
			}
		}
	})
	// With a zero and a drawn bias; odd row counts leave a lone last row,
	// which goes through dotPair as both rows of the pair, and the 3-row
	// and 1-row heads take the swapped-lane path.
	t.Run("MatMulTransB", func(t *testing.T) {
		rng := rand.New(rand.NewSource(62))
		shapes := append(f64Shapes(rng), [3]int{16, 18, 64}, [3]int{16, 64, 64}, [3]int{16, 64, 3}, [3]int{16, 64, 1},
			[3]int{15, 18, 64}, [3]int{15, 64, 64}, [3]int{15, 64, 3}, [3]int{15, 64, 1}, [3]int{3, 20, 12}, [3]int{5, 7, 68})
		for _, sh := range shapes {
			n, k, c := sh[0], sh[1], sh[2]
			for _, sp := range f64Densities {
				a, w := f64Matrix(rng, n, k, sp), f64Matrix(rng, c, k, sp)
				for bi, bias := range []Vector{NewVector(c), f64Values(rng, c, sp)} {
					got, guard := guarded(t, f64Matrix(rng, n, c, 0.5)) // stale got
					want := NewMatrix(n, c)
					MatMulTransB(got, a, w, bias)
					guard()
					matMulTransBGeneric(want, a, w, bias)
					checkSameF64(t, fmt.Sprintf("%dx%d·(%dx%d)ᵀ bias %d density %v", n, k, c, k, bi, sp), got.Data, want.Data)
				}
			}
		}
	})
	t.Run("MatMul", func(t *testing.T) {
		rng := rand.New(rand.NewSource(63))
		shapes := append(f64Shapes(rng), [3]int{16, 64, 64}, [3]int{16, 3, 64}, [3]int{16, 1, 64}, [3]int{16, 64, 18})
		for _, sh := range shapes {
			n, k, c := sh[0], sh[1], sh[2]
			for _, sp := range f64Densities {
				a, b := f64Matrix(rng, n, k, sp), f64Matrix(rng, k, c, sp)
				got, guard := guarded(t, f64Matrix(rng, n, c, 0.5)) // stale got
				want := NewMatrix(n, c)
				MatMul(got, a, b)
				guard()
				matMulGeneric(want, a, b)
				checkSameF64(t, fmt.Sprintf("%dx%d·%dx%d density %v", n, k, k, c, sp), got.Data, want.Data)
			}
		}
	})
	t.Run("AddMatMulTransA", func(t *testing.T) {
		rng := rand.New(rand.NewSource(64))
		shapes := append(f64Shapes(rng), [3]int{16, 64, 18}, [3]int{16, 64, 64}, [3]int{16, 3, 64}, [3]int{16, 1, 64})
		for _, sh := range shapes {
			n, r, c := sh[0], sh[1], sh[2]
			if r == 0 {
				continue
			}
			for _, sp := range f64Densities {
				a, b := f64Matrix(rng, n, r, sp), f64Matrix(rng, n, c, sp)
				init := f64Matrix(rng, r, c, sp)
				for _, set := range []bool{false, true} {
					got, guard := guarded(t, init)
					want := init.Clone()
					addMatMulTransA(got, a, b, set)
					guard()
					addMatMulTransAGeneric(want, a, b, set)
					checkSameF64(t, fmt.Sprintf("(%dx%d)ᵀ·%dx%d set=%v density %v", n, r, n, c, set, sp), got.Data, want.Data)
				}
			}
		}
	})
	// A NaN multiplier is not a zero: Go's a != 0 keeps it, so its row of b
	// turns the whole destination row NaN. VUCOMISD reports NaN == 0 through
	// ZF, so this fails unless the kernels also test PF.
	t.Run("NaNMultiplier", func(t *testing.T) {
		for _, c := range []int{1, 4, 16, 21} {
			a := NewMatrix(1, 5)
			a.Data[2] = math.NaN()
			b := NewMatrix(5, c)
			b.Fill(0.5)
			got := NewMatrix(1, c)
			MatMul(got, a, b)
			for j, v := range got.Data {
				if !math.IsNaN(v) {
					t.Fatalf("MatMul width %d: column %d = %v, want NaN", c, j, v)
				}
			}
			// The same multiplier as a column of a in dW = aᵀ·b.
			at := NewMatrix(5, 1)
			at.Data[2] = math.NaN()
			gw := NewMatrix(1, c)
			MatMulTransA(gw, at, b)
			for j, v := range gw.Data {
				if !math.IsNaN(v) {
					t.Fatalf("MatMulTransA width %d: column %d = %v, want NaN", c, j, v)
				}
			}
		}
	})
	// The merge tree calls Add with dst == a; the per-sample Forward adds
	// the bias with dst == a too.
	t.Run("Add", func(t *testing.T) {
		rng := rand.New(rand.NewSource(67))
		for n := 0; n < 70; n++ {
			for _, sp := range f64Densities {
				a, b := Vector(f64Values(rng, n, sp)), Vector(f64Values(rng, n, sp))
				want := NewVector(n)
				addVectorsGeneric(want, a, b)
				buf := f64Values(rng, n+4, 0.5) // stale, with sentinels past n
				tail := append([]float64(nil), buf[n:]...)
				got := Vector(buf[:n:n])
				got.Add(a, b)
				checkSameF64(t, fmt.Sprintf("len %d density %v", n, sp), got, want)
				checkSameF64(t, fmt.Sprintf("len %d past the end", n), buf[n:], tail)
				aliased := a.Clone()
				aliased.Add(aliased, b)
				checkSameF64(t, fmt.Sprintf("len %d dst == a density %v", n, sp), aliased, want)
			}
		}
	})
	// Hidden widths 64 and others, the 1- and 3-wide heads, 1-16 rows, and
	// bias sums that start at zero (set) or at earlier sums (accumulate).
	t.Run("TanhBackward", func(t *testing.T) {
		rng := rand.New(rand.NewSource(68))
		widths := []int{1, 3, 64, 4, 5, 16, 17, 21, 35, 67}
		for _, c := range widths {
			for n := 1; n <= 16; n++ {
				for _, sp := range f64Densities {
					dout, y := f64Matrix(rng, n, c, sp), f64Matrix(rng, n, c, sp)
					for _, set := range []bool{true, false} {
						gb0 := NewVector(c)
						if !set {
							gb0 = f64Values(rng, c, sp)
						}
						wantDz, wantGb := NewMatrix(n, c), gb0.Clone()
						tanhBackwardGeneric(wantDz, dout, y, wantGb)
						gotDz, guardDz := guarded(t, f64Matrix(rng, n, c, 0.5)) // stale dz
						gbm, guardGb := guarded(t, &Matrix{Rows: 1, Cols: c, Data: gb0})
						TanhBackward(gotDz, dout, y, gbm.Data)
						guardDz()
						guardGb()
						label := fmt.Sprintf("%dx%d set=%v density %v", n, c, set, sp)
						checkSameF64(t, label+" dz", gotDz.Data, wantDz.Data)
						checkSameF64(t, label+" bias sum", gbm.Data, wantGb)
					}
				}
			}
		}
	})
	// Lengths 0-3 past a multiple of 4 (the 3-element head bias and log-σ
	// are all tail), unit and clip scales, special gradients and moments,
	// and all-zero second moments as a first step leaves them.
	t.Run("AdamStep", func(t *testing.T) {
		rng := rand.New(rand.NewSource(69))
		coeffs := []AdamCoeffs{
			{LR: 3e-4, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, BC1: 1 - 0.9, BC2: 1 - 0.999, Scale: 1},
			{LR: 3e-4, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, BC1: 1 - math.Pow(0.9, 37), BC2: 1 - math.Pow(0.999, 37), Scale: 0.5 / (7.3 + 1e-12)},
			{LR: 1e-3, Beta1: 0.8, Beta2: 0.99, Epsilon: 1e-6, BC1: 0.5, BC2: 0.25, Scale: 1e-3},
		}
		for _, q := range []int{0, 1, 2, 16, 1393} {
			for r := 0; r < 4; r++ {
				n := 4*q + r
				for _, c := range coeffs {
					for _, sp := range f64Densities {
						for _, zeroV := range []bool{false, true} {
							w, g := f64Values(rng, n, sp), f64Values(rng, n, sp)
							m, v := f64Values(rng, n, sp), f64Values(rng, n, sp)
							if zeroV {
								clear(m)
								clear(v)
							} else {
								for i := range v {
									v[i] = math.Abs(v[i])
								}
							}
							ww, wm, wv := append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
							adamStepGeneric(ww, g, wm, wv, c)
							AdamStep(w, g, m, v, c)
							label := fmt.Sprintf("len %d scale %v density %v v=0 %v", n, c.Scale, sp, zeroV)
							checkSameF64(t, label+" w", w, ww)
							checkSameF64(t, label+" m", m, wm)
							checkSameF64(t, label+" v", v, wv)
						}
					}
				}
			}
		}
	})
	t.Run("FastTanhInto", func(t *testing.T) {
		rng := rand.New(rand.NewSource(65))
		edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
		for _, c := range []float64{tanhClamp, -tanhClamp} {
			edges = append(edges, c, math.Nextafter(c, 0), math.Nextafter(c, 2*c))
		}
		src := make([]float64, 0, 1<<20+len(edges))
		src = append(src, edges...)
		for len(src) < cap(src) {
			switch rng.Intn(4) {
			case 0: // around the clamp
				src = append(src, (tanhClamp+rng.NormFloat64()*1e-3)*float64(rng.Intn(2)*2-1))
			case 1: // any bit pattern
				src = append(src, math.Float64frombits(rng.Uint64()))
			default: // where training activations live
				src = append(src, rng.NormFloat64()*4)
			}
		}
		want := make([]float64, len(src))
		fastTanhIntoGeneric(want, src)
		for _, n := range []int{len(src), len(src) - 1, 7, 3, 0} {
			got := make([]float64, n)
			FastTanhInto(got, src[:n])
			checkSameF64(t, fmt.Sprintf("len %d", n), got, want[:n])
		}
		// In place, as applyBatch may be called.
		inPlace := append([]float64(nil), src...)
		FastTanhInto(inPlace, inPlace)
		checkSameF64(t, "in place", inPlace, want)
	})
}

// BenchmarkF64Kernels times each float64 kernel at the shapes the training
// engine and the f64 actor run, against the Go loop it replaces.
func BenchmarkF64Kernels(b *testing.B) {
	rng := rand.New(rand.NewSource(66))
	type kernel struct {
		name          string
		dispatch, ref func()
	}
	var ks []kernel
	for _, sh := range [][3]int{{16, 18, 64}, {16, 64, 64}, {16, 64, 3}} {
		n, k, c := sh[0], sh[1], sh[2]
		a, w, dst := randMatrix(n, k, rng), randMatrix(c, k, rng), NewMatrix(n, c)
		bias := Vector(f64Values(rng, c, 0))
		ks = append(ks, kernel{fmt.Sprintf("MatMulTransB/%dx%d·%dx%d", n, k, c, k),
			func() { MatMulTransB(dst, a, w, bias) },
			func() { matMulTransBGeneric(dst, a, w, bias) }})
	}
	for _, sh := range [][2]int{{64, 18}, {64, 64}, {3, 64}, {64, 6000}} {
		m, x, y := randMatrix(sh[0], sh[1], rng), Vector(f64Values(rng, sh[1], 0)), NewVector(sh[0])
		ks = append(ks, kernel{fmt.Sprintf("MatVec/%dx%d", sh[0], sh[1]),
			func() { MatVec(y, m, x) }, func() { matVecGeneric(y, m, x) }})
	}
	{
		dz, w, dx := randSparse(16, 64, rng), randMatrix(64, 64, rng), NewMatrix(16, 64)
		ks = append(ks, kernel{"MatMul/16x64·64x64",
			func() { MatMul(dx, dz, w) }, func() { matMulGeneric(dx, dz, w) }})
	}
	for _, in := range []int{18, 64} {
		dz, x, gw := randSparse(16, 64, rng), randMatrix(16, in, rng), NewMatrix(64, in)
		ks = append(ks, kernel{fmt.Sprintf("MatMulTransA/64x%d·16", in),
			func() { MatMulTransA(gw, dz, x) },
			func() { addMatMulTransAGeneric(gw, dz, x, true) }})
	}
	{
		src, dst := f64Values(rng, 1024, 0), make([]float64, 1024)
		ks = append(ks, kernel{"FastTanhInto/1024",
			func() { FastTanhInto(dst, src) }, func() { fastTanhIntoGeneric(dst, src) }})
	}
	{
		dout, y, dz, gb := randMatrix(16, 64, rng), randMatrix(16, 64, rng), NewMatrix(16, 64), NewVector(64)
		ks = append(ks, kernel{"TanhBackward/16x64",
			func() { TanhBackward(dz, dout, y, gb) }, func() { tanhBackwardGeneric(dz, dout, y, gb) }})
	}
	// The actor's parameters (18→64→64→3 and three log-σ) and the
	// critic's (18→64→64→1): one Adam step, and one merge-tree addition.
	// Gradients hold no zeros: a zero gradient would decay its moment into
	// subnormals over the benchmark's repeated steps, and time the CPU's
	// subnormal assist instead of the kernel.
	for _, n := range []int{5574, 5441} {
		w, g, m, v := randMatrix(1, n, rng).Data, randMatrix(1, n, rng).Data, randMatrix(1, n, rng).Data, randMatrix(1, n, rng).Data
		for i := range v {
			v[i] = math.Abs(v[i])
		}
		c := AdamCoeffs{LR: 3e-4, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, BC1: 0.5, BC2: 0.25, Scale: 1}
		ks = append(ks, kernel{fmt.Sprintf("AdamStep/%d", n),
			func() { AdamStep(w, g, m, v, c) }, func() { adamStepGeneric(w, g, m, v, c) }})
		a, bb := Vector(f64Values(rng, n, 0)), Vector(f64Values(rng, n, 0))
		ks = append(ks, kernel{fmt.Sprintf("Add/%d", n),
			func() { a.Add(a, bb) }, func() { addVectorsGeneric(a, a, bb) }})
	}
	for _, k := range ks {
		b.Run(k.name+"/dispatch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.dispatch()
			}
		})
		b.Run(k.name+"/go", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.ref()
			}
		})
	}
}
