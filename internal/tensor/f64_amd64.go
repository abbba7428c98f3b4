//go:build amd64 && !race

package tensor

// Assembly routines (f64_amd64.s). Each reproduces a Go loop of tensor.go or
// fasttanh.go bit for bit; the Go loops stay as the fallback and as the
// reference TestF64KernelsMatchGo compares against. Race builds use the Go
// loops (f64_noasm.go), so the race detector sees every load and store.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

//go:noescape
func axpy16(d, a *float64, as int, b *float64, ldb, n int)

//go:noescape
func axpy4(d, a *float64, as int, b *float64, ldb, n int, mask *[4]int64)

//go:noescape
func dotRows8(dst, w *float64, ldw int, x *float64, k int)

//go:noescape
func dotRows4(dst, w *float64, ldw int, x *float64, k int)

//go:noescape
func dotPair(d0, d1, w *float64, ldw int, x0, x1 *float64, k, rows int, bias *float64)

//go:noescape
func tanhVec4(dst, src *float64, n int)

//go:noescape
func addVec(dst, a, b *float64, n int)

//go:noescape
func tanhGrad16(dz, dout, y, gb *float64, ld, n int)

//go:noescape
func tanhGrad4(dz, dout, y, gb *float64, ld, n int, mask *[4]int64)

//go:noescape
func adamStep4(w, grad, m, v *float64, n int, c *[9]float64)

// useF64Asm selects the float64 kernels: AVX2 + FMA + OS support for YMM
// state (XGETBV), resolved once at startup. The kernels need only AVX and
// never use FMA; the gate is the stricter AVX2+FMA one all the same.
var useF64Asm = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&(fma|osxsave|avx) != (fma | osxsave | avx) {
		return false
	}
	if eax, _ := xgetbv0(); eax&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// tanhLanes holds FastTanh's constants four times each: the 256-bit memory
// operands of tanhVec4, in the order of the TANH_* offsets in f64_amd64.s.
var tanhLanes = [15][4]float64{
	{tanhClamp, tanhClamp, tanhClamp, tanhClamp},
	{-tanhClamp, -tanhClamp, -tanhClamp, -tanhClamp},
	{1, 1, 1, 1},
	{-1, -1, -1, -1},
	{tanhP13, tanhP13, tanhP13, tanhP13},
	{tanhP11, tanhP11, tanhP11, tanhP11},
	{tanhP9, tanhP9, tanhP9, tanhP9},
	{tanhP7, tanhP7, tanhP7, tanhP7},
	{tanhP5, tanhP5, tanhP5, tanhP5},
	{tanhP3, tanhP3, tanhP3, tanhP3},
	{tanhP1, tanhP1, tanhP1, tanhP1},
	{tanhQ6, tanhQ6, tanhQ6, tanhQ6},
	{tanhQ4, tanhQ4, tanhQ4, tanhQ4},
	{tanhQ2, tanhQ2, tanhQ2, tanhQ2},
	{tanhQ0, tanhQ0, tanhQ0, tanhQ0},
}

func matVec(dst Vector, m *Matrix, x Vector) {
	if !useF64Asm {
		matVecGeneric(dst, m, x)
		return
	}
	dotRows(dst, m.Data, m.Cols, x)
}

func matMulTransB(dst, a, b *Matrix, bias Vector) {
	if !useF64Asm {
		matMulTransBGeneric(dst, a, b, bias)
		return
	}
	n, k, c := a.Rows, a.Cols, b.Rows
	c4 := c &^ 3
	if c4 > 0 {
		w, bv := b.Data[:c4*k], bias[:c4]
		// A lone last row goes in as both rows of the pair: the kernel
		// stores the same sums to it twice.
		for i := 0; i < n; i += 2 {
			j := min(i+1, n-1)
			d0, d1 := dst.Data[i*c:i*c+c4], dst.Data[j*c:j*c+c4]
			x0, x1 := a.Data[i*k:(i+1)*k], a.Data[j*k:(j+1)*k]
			dotPair(&d0[0], &d1[0], first(w), k, first(x0), first(x1), k, c4, &bv[0])
		}
	}
	// The last c%4 weight rows are too few to fill the lanes, so the samples
	// fill them instead: element (i, o) is the same dot product either way,
	// with the operands of each product swapped.
	var t [8]float64
	for o := c4; o < c; o++ {
		for i := 0; i < n; i += len(t) {
			m := min(n-i, len(t))
			dotRows(t[:m], a.Data[i*k:], k, b.Data[o*k:(o+1)*k])
			for l, v := range t[:m] {
				dst.Data[(i+l)*c+o] = v + bias[o]
			}
		}
	}
}

// dotRows stores Σ_j w[o*k+j]·x[j] into dst[o] for every o < len(dst): the
// kernels take eight, then four rows at a time, and Go computes the last
// rows%4 rows, so each output sees MatVec's term sequence.
func dotRows(dst, w []float64, k int, x []float64) {
	rows := len(dst)
	w, x = w[:rows*k], x[:k]
	o := 0
	if k > 0 {
		for ; o+8 <= rows; o += 8 {
			dotRows8(&dst[o], &w[o*k], k, &x[0], k)
		}
		if o+4 <= rows {
			dotRows4(&dst[o], &w[o*k], k, &x[0], k)
			o += 4
		}
	}
	if o < rows {
		matVecGeneric(dst[o:], &Matrix{Rows: rows - o, Cols: k, Data: w[o*k:]}, x)
	}
}

func matMul(dst, a, b *Matrix) {
	if !useF64Asm {
		matMulGeneric(dst, a, b)
		return
	}
	k, c := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		d := dst.Data[i*c : (i+1)*c]
		clear(d)
		axpyRows(d, a.Data[i*k:(i+1)*k], 1, b.Data, k)
	}
}

func addMatMulTransA(dst, a, b *Matrix, set bool) {
	if !useF64Asm {
		addMatMulTransAGeneric(dst, a, b, set)
		return
	}
	n, r, c := a.Rows, a.Cols, b.Cols
	for o := 0; o < dst.Rows; o++ {
		d := dst.Data[o*c : (o+1)*c]
		if set {
			clear(d)
		}
		axpyRows(d, a.Data[o:], r, b.Data, n)
	}
}

// laneMasks[m] enables the first m lanes of axpy4.
var laneMasks = [5][4]int64{{}, {-1}, {-1, -1}, {-1, -1, -1}, {-1, -1, -1, -1}}

// axpyRows adds a[kk*as]·b[kk*c : (kk+1)*c] to d (c = len(d)) for kk = 0..n-1
// in order, skipping zero multipliers as the Go loops do. The kernels take
// 16 columns at a time, then 4, the last call masking off the columns past c.
func axpyRows(d, a []float64, as int, b []float64, n int) {
	c := len(d)
	if n == 0 || c == 0 {
		return
	}
	a, b = a[:(n-1)*as+1], b[:n*c]
	j := 0
	for ; j+16 <= c; j += 16 {
		axpy16(&d[j], &a[0], as, &b[j], c, n)
	}
	for ; j < c; j += 4 {
		axpy4(&d[j], &a[0], as, &b[j], c, n, &laneMasks[min(c-j, 4)])
	}
}

func fastTanhInto(dst, src []float64) {
	if !useF64Asm {
		fastTanhIntoGeneric(dst, src)
		return
	}
	n4 := len(src) &^ 3
	if n4 > 0 {
		tanhVec4(&dst[0], &src[0], n4)
	}
	for i := n4; i < len(src); i++ {
		dst[i] = FastTanh(src[i])
	}
}

// first returns the address of s's first element, or nil when s is empty:
// a kernel given k = 0 reads nothing through it.
func first(s []float64) *float64 {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

func addVectors(dst, a, b Vector) {
	if !useF64Asm {
		addVectorsGeneric(dst, a, b)
		return
	}
	n4 := len(dst) &^ 3
	if n4 > 0 {
		addVec(&dst[0], &a[0], &b[0], n4)
	}
	addVectorsGeneric(dst[n4:], a[n4:len(dst)], b[n4:len(dst)])
}

func tanhBackward(dz, dout, y *Matrix, gb Vector) {
	if !useF64Asm {
		tanhBackwardGeneric(dz, dout, y, gb)
		return
	}
	n, c := y.Rows, y.Cols
	if n == 0 || c == 0 {
		return
	}
	dd, od, yd := dz.Data[:n*c], dout.Data[:n*c], y.Data[:n*c]
	j := 0
	for ; j+16 <= c; j += 16 {
		tanhGrad16(&dd[j], &od[j], &yd[j], &gb[j], c, n)
	}
	for ; j < c; j += 4 {
		tanhGrad4(&dd[j], &od[j], &yd[j], &gb[j], c, n, &laneMasks[min(c-j, 4)])
	}
}

func adamStep(w, g, m, v []float64, c AdamCoeffs) {
	n4 := len(w) &^ 3
	if !useF64Asm || n4 == 0 {
		adamStepGeneric(w, g, m, v, c)
		return
	}
	lanes := [9]float64{c.Beta1, 1 - c.Beta1, c.Beta2, 1 - c.Beta2, c.BC1, c.BC2, c.LR, c.Epsilon, c.Scale}
	adamStep4(&w[0], &g[0], &m[0], &v[0], n4, &lanes)
	adamStepGeneric(w[n4:], g[n4:len(w)], m[n4:len(w)], v[n4:len(w)], c)
}
