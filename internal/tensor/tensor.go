// Package tensor provides small dense float64 vector and matrix types with
// the linear-algebra kernels needed by the neural-network and reinforcement-
// learning packages. It is deliberately minimal: no views, no strides beyond
// row-major matrices, and no generics — just the operations the DRL agent
// needs, implemented with predictable allocation behaviour so hot loops can
// run allocation-free.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every element of v to 0.
func (v Vector) Zero() { v.Fill(0) }

// Add stores a+b into v. All three must have equal length; v may be a or
// b. Where the AVX kernels run (DESIGN.md §15) they add four elements at a
// time with the same bits.
func (v Vector) Add(a, b Vector) {
	checkLen3(len(v), len(a), len(b))
	addVectors(v, a, b)
}

func addVectorsGeneric(v, a, b Vector) {
	for i := range v {
		v[i] = a[i] + b[i]
	}
}

// Equal reports whether a and b have identical length and elements.
func Equal(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AllFinite reports whether every element of v is finite (no NaN/Inf).
func (v Vector) AllFinite() bool { return v.FirstNonFinite() < 0 }

// FirstNonFinite returns the index of v's first NaN or ±Inf element, or -1
// when every element is finite.
func (v Vector) FirstNonFinite() int {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a Vector sharing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to x.
func (m *Matrix) Fill(x float64) {
	for i := range m.Data {
		m.Data[i] = x
	}
}

// MatVec stores m·x into dst. dst must have length m.Rows and x length
// m.Cols; dst must not alias x. Each element is one accumulator summed in
// ascending column order; where the AVX kernels run (DESIGN.md §15) they
// take eight rows as lanes and produce the same bits.
func MatVec(dst Vector, m *Matrix, x Vector) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch %dx%d · %d -> %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	matVec(dst, m, x)
}

// matVecGeneric is MatVec's Go loop: one accumulator per row, summed in
// ascending column order.
func matVecGeneric(dst Vector, m *Matrix, x Vector) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] = s
	}
}

// MatTVec stores mᵀ·x into dst (dst len m.Cols, x len m.Rows).
func MatTVec(dst Vector, m *Matrix, x Vector) {
	if len(dst) != m.Cols || len(x) != m.Rows {
		panic("tensor: MatTVec shape mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += w * xi
		}
	}
}

// MatMul stores a·b into dst (shapes: a r×k, b k×c, dst r×c). dst must not
// alias a or b.
//
// Each destination element owns an accumulator that sums a[i][k]·b[k][j] in
// ascending k, skipping a[i][k] == 0 — exactly the term sequence of the
// naive saxpy loop, so the result is bit-identical to it (pinned by
// TestMatMulTiledBitIdentical). The zero skip matters beyond speed: rows of
// a that are exactly zero (clip-inactive PPO samples) contribute no term,
// matching the per-sample MatTVec path bit for bit. Where the AVX kernels
// run (DESIGN.md §15), 16 destination columns share each broadcast
// a[i][k], with the same term sequence and zero skip.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMul shape mismatch")
	}
	matMul(dst, a, b)
}

// matMulGeneric is MatMul's Go loop. Each dst row accumulates Σ_kk
// a[i][kk]·b[kk][:] over contiguous b rows, four terms per pass; the chained
// d[j] + t₀ + t₁ + t₂ + t₃ associates left to right, keeping every
// element's accumulation in ascending kk order — bit-identical to the plain
// dot-product loop, including the skip of zero a[i][kk] terms (mixed quads
// fall back to sequential single-term axpys).
func matMulGeneric(dst, a, b *Matrix) {
	k, c := a.Cols, b.Cols
	ad, bd := a.Data, b.Data
	for i := 0; i < a.Rows; i++ {
		arow := ad[i*k : (i+1)*k]
		d := dst.Data[i*c : (i+1)*c]
		for j := range d {
			d[j] = 0
		}
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			t0, t1, t2, t3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			b0 := bd[kk*c : (kk+1)*c]
			b1 := bd[(kk+1)*c : (kk+2)*c]
			b2 := bd[(kk+2)*c : (kk+3)*c]
			b3 := bd[(kk+3)*c : (kk+4)*c]
			if t0 != 0 && t1 != 0 && t2 != 0 && t3 != 0 {
				for j := range d {
					d[j] = d[j] + t0*b0[j] + t1*b1[j] + t2*b2[j] + t3*b3[j]
				}
				continue
			}
			if t0 != 0 {
				for j := range d {
					d[j] += t0 * b0[j]
				}
			}
			if t1 != 0 {
				for j := range d {
					d[j] += t1 * b1[j]
				}
			}
			if t2 != 0 {
				for j := range d {
					d[j] += t2 * b2[j]
				}
			}
			if t3 != 0 {
				for j := range d {
					d[j] += t3 * b3[j]
				}
			}
		}
		for ; kk < k; kk++ {
			if av := arow[kk]; av != 0 {
				brow := bd[kk*c : (kk+1)*c]
				for j := range d {
					d[j] += av * brow[j]
				}
			}
		}
	}
}

// MatMulTransB stores a·bᵀ + bias into dst (shapes: a r×k, b c×k, dst
// r×c, bias c). Each destination element is a dot product of two rows, so
// both operands stream sequentially through cache. The inner accumulation
// runs in ascending k order — exactly the order MatVec uses — and the bias
// is added to the finished sum, so batching a stack of MatVec calls
// followed by Vector.Add of the bias through this kernel is bit-identical
// to the per-vector loop.
//
// The kernel is register-tiled 2×2: four destination elements accumulate
// concurrently, so each load of a[i][j] / b[o][j] feeds two multiplies and
// the two a-rows' streams hit the same cache lines of b. Every destination
// element still has its own accumulator running in ascending k, so tiling
// changes no result bit (pinned by TestMatMulTransBTiledBitIdentical). The
// AVX kernels (DESIGN.md §15) take two sample rows at a time, sharing each
// transposed 4×4 tile of b between them.
func MatMulTransB(dst, a, b *Matrix, bias Vector) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows || len(bias) != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %dx%d · (%dx%d)ᵀ + %d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, len(bias), dst.Rows, dst.Cols))
	}
	matMulTransB(dst, a, b, bias)
}

func matMulTransBGeneric(dst, a, b *Matrix, bias Vector) {
	n, k, c := a.Rows, a.Cols, b.Rows
	i := 0
	for ; i+2 <= n; i += 2 {
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		d0 := dst.Data[i*c : (i+1)*c]
		d1 := dst.Data[(i+1)*c : (i+2)*c]
		o := 0
		// 2×2 register tile: four independent accumulators per pass
		// raise the multiply-add to load ratio; each dst element still
		// owns one accumulator summed in ascending j, so the tile shape
		// cannot change a bit. (Wider 2×4 and 4×2 tiles measured slower
		// here: eight live accumulators spill on amd64.)
		for ; o+2 <= c; o += 2 {
			b0 := b.Data[o*k : (o+1)*k]
			b1 := b.Data[(o+1)*k : (o+2)*k]
			var s00, s01, s10, s11 float64
			for j, av0 := range a0 {
				av1 := a1[j]
				bv0, bv1 := b0[j], b1[j]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s10 += av1 * bv0
				s11 += av1 * bv1
			}
			d0[o], d0[o+1] = s00, s01
			d1[o], d1[o+1] = s10, s11
		}
		for ; o < c; o++ {
			b0 := b.Data[o*k : (o+1)*k]
			var s00, s10 float64
			for j, av0 := range a0 {
				s00 += av0 * b0[j]
				s10 += a1[j] * b0[j]
			}
			d0[o], d1[o] = s00, s10
		}
	}
	if i < n {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*c : (i+1)*c]
		for o := 0; o < c; o++ {
			brow := b.Data[o*k : (o+1)*k]
			var s float64
			for j, av := range arow {
				s += av * brow[j]
			}
			drow[o] = s
		}
	}
	for i := 0; i < n; i++ {
		row := dst.Data[i*c : (i+1)*c]
		for o, x := range bias {
			row[o] += x
		}
	}
}

// AddMatMulTransA performs dst += aᵀ·b (shapes: a n×r, b n×c, dst r×c).
// Each destination element accumulates a[s][o]·b[s][j] in ascending sample
// order s, skipping a[s][o] == 0 — exactly the term sequence of n successive
// AddOuter rank-1 updates, reproduced bit for bit (pinned by
// TestAddMatMulTransATiledBitIdentical). The kernel iterates destination
// rows in the outer loop and streams four samples per pass inside each row;
// the AVX kernels (DESIGN.md §15) stream one sample per pass over 16
// columns.
func AddMatMulTransA(dst, a, b *Matrix) {
	checkMatMulTransA(dst, a, b)
	addMatMulTransA(dst, a, b, false)
}

// MatMulTransA stores aᵀ·b into dst (set form of AddMatMulTransA: the
// accumulators start from zero instead of the current dst values, so shard
// gradient replicas need no zeroing pass between minibatches).
func MatMulTransA(dst, a, b *Matrix) {
	checkMatMulTransA(dst, a, b)
	addMatMulTransA(dst, a, b, true)
}

func checkMatMulTransA(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: AddMatMulTransA shape mismatch (%dx%d)ᵀ · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// addMatMulTransAGeneric is the shared register-tiled Go core. Each dst row
// o is a column of a, accumulated as Σ_i a[i][o]·b[i][:]. The outer loop
// keeps one dst row hot while streaming four samples at a time: the
// unrolled axpy chain d[j] + t₀ + t₁ + t₂ + t₃ associates left to right, so
// every dst element still sees its contributions in ascending sample order
// — bit-identical to the one-sample-at-a-time loop. A zero a[i][o] skips
// that sample's contribution to the row (clipped PPO rows zero whole
// upstream rows); mixed zero/nonzero quads fall back to sequential
// single-sample axpys in the same i order. When set is true the row starts
// from zero (cleared up front) instead of the current dst values.
func addMatMulTransAGeneric(dst, a, b *Matrix, set bool) {
	n, r, c := a.Rows, a.Cols, b.Cols
	ad, bd := a.Data, b.Data
	for o := 0; o < dst.Rows; o++ {
		d := dst.Data[o*c : (o+1)*c]
		if set {
			for j := range d {
				d[j] = 0
			}
		}
		i := 0
		for ; i+4 <= n; i += 4 {
			a0, a1 := ad[i*r+o], ad[(i+1)*r+o]
			a2, a3 := ad[(i+2)*r+o], ad[(i+3)*r+o]
			b0 := bd[i*c : (i+1)*c]
			b1 := bd[(i+1)*c : (i+2)*c]
			b2 := bd[(i+2)*c : (i+3)*c]
			b3 := bd[(i+3)*c : (i+4)*c]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				for j := range d {
					d[j] = d[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
				continue
			}
			if a0 != 0 {
				for j := range d {
					d[j] += a0 * b0[j]
				}
			}
			if a1 != 0 {
				for j := range d {
					d[j] += a1 * b1[j]
				}
			}
			if a2 != 0 {
				for j := range d {
					d[j] += a2 * b2[j]
				}
			}
			if a3 != 0 {
				for j := range d {
					d[j] += a3 * b3[j]
				}
			}
		}
		for ; i < n; i++ {
			if av := ad[i*r+o]; av != 0 {
				brow := bd[i*c : (i+1)*c]
				for j := range d {
					d[j] += av * brow[j]
				}
			}
		}
	}
}

// AddRowSums accumulates the columnwise sums of m into dst (dst[j] += Σ_i
// m[i][j]), adding rows in ascending order so it matches a loop of
// Vector.Add calls bit for bit.
func AddRowSums(dst Vector, m *Matrix) {
	if len(dst) != m.Cols {
		panic("tensor: AddRowSums shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			dst[j] += x
		}
	}
}

// TanhBackward backpropagates through a tanh layer: it stores dz = dout ⊙
// (1 − y⊙y) (all three n×c, y the layer's output) and adds the column sums
// of dz to gb (length c), rows in ascending order. Each element matches
// the derivative loop followed by AddRowSums bit for bit; where the AVX
// kernels run (DESIGN.md §15) four columns share each instruction.
func TanhBackward(dz, dout, y *Matrix, gb Vector) {
	if dz.Rows != y.Rows || dz.Cols != y.Cols || dout.Rows != y.Rows || dout.Cols != y.Cols || len(gb) != y.Cols {
		panic("tensor: TanhBackward shape mismatch")
	}
	tanhBackward(dz, dout, y, gb)
}

func tanhBackwardGeneric(dz, dout, y *Matrix, gb Vector) {
	c := y.Cols
	for i := 0; i < y.Rows; i++ {
		yr := y.Data[i*c : (i+1)*c]
		or := dout.Data[i*c : (i+1)*c]
		dr := dz.Data[i*c : (i+1)*c]
		for j, yv := range yr {
			d := or[j] * (1 - yv*yv)
			dr[j] = d
			gb[j] += d
		}
	}
}

// AdamCoeffs are the scalars of one Adam step (see AdamStep).
type AdamCoeffs struct {
	LR, Beta1, Beta2, Epsilon float64
	BC1, BC2                  float64 // bias corrections 1−β1ᵗ and 1−β2ᵗ
	Scale                     float64 // multiplier on every gradient read
}

// AdamStep applies one Adam update to the weights w from the gradients g,
// updating the first and second moments m and v in place (all four of equal
// length): for each i, g' = g[i]·Scale, m = β1·m + (1−β1)·g',
// v = β2·v + (1−β2)·g'·g', and w −= LR·(m/BC1) / (√(v/BC2) + ε). Where the
// AVX kernels run (DESIGN.md §15) four elements go through the same
// operations in the same order, with the same bits.
func AdamStep(w, g, m, v []float64, c AdamCoeffs) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AdamStep length mismatch %d/%d/%d/%d", len(w), len(g), len(m), len(v)))
	}
	adamStep(w, g, m, v, c)
}

func adamStepGeneric(w, g, m, v []float64, c AdamCoeffs) {
	for i := range w {
		gs := g[i] * c.Scale
		m[i] = c.Beta1*m[i] + (1-c.Beta1)*gs
		v[i] = c.Beta2*v[i] + (1-c.Beta2)*gs*gs
		mh := m[i] / c.BC1
		vh := v[i] / c.BC2
		w[i] -= c.LR * mh / (math.Sqrt(vh) + c.Epsilon)
	}
}

// EnsureShape returns m resized to rows×cols, reusing its backing array
// when it has enough capacity and allocating a fresh matrix otherwise. The
// contents after a resize are unspecified; callers that need zeros must
// call Zero themselves.
func EnsureShape(m *Matrix, rows, cols int) *Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return NewMatrix(rows, cols)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:rows*cols]
	return m
}

// AddOuter performs m += s · x·yᵀ (rank-1 update; x len m.Rows, y len m.Cols).
func (m *Matrix) AddOuter(s float64, x, y Vector) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("tensor: AddOuter shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		sx := s * x[i]
		if sx == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yv := range y {
			row[j] += sx * yv
		}
	}
}

func checkLen2(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d vs %d", a, b))
	}
}

func checkLen3(a, b, c int) {
	if a != b || b != c {
		panic(fmt.Sprintf("tensor: length mismatch %d/%d/%d", a, b, c))
	}
}
