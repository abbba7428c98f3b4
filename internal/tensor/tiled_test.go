package tensor

import (
	"math/rand"
	"testing"
)

// randSparse fills a matrix with normal values, zeroing a fraction of
// elements and entire rows to exercise the zero-skip branches of the tiled
// kernels exactly where the PPO backward produces them (clip-inactive
// samples have all-zero gradient rows).
func randSparse(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Intn(5) == 0 {
			continue // exact zero
		}
		m.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < rows; i++ {
		if rng.Intn(4) == 0 {
			m.Row(i).Zero()
		}
	}
	return m
}

// naiveMatMul is the historical saxpy-form kernel (zero dst, then
// accumulate row k of b scaled by a[i][k] in ascending k, skipping zeros) —
// the reference the tiled MatMul must reproduce bit for bit.
func naiveMatMul(dst, a, b *Matrix) {
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// naiveAddMatMulTransA is the historical sample-major rank-1 accumulation —
// the reference the tiled AddMatMulTransA must reproduce bit for bit.
func naiveAddMatMulTransA(dst, a, b *Matrix) {
	for s := 0; s < a.Rows; s++ {
		arow := a.Data[s*a.Cols : (s+1)*a.Cols]
		brow := b.Data[s*b.Cols : (s+1)*b.Cols]
		for o, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[o*dst.Cols : (o+1)*dst.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func matricesEqual(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d: %v != %v (bit mismatch)", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMatMulTiledBitIdentical pins the tiled destination-major MatMul to the
// naive saxpy loop across shapes that exercise every tile-tail combination
// (odd rows, odd cols, tiny k) and zero-sprinkled inputs.
func TestMatMulTiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range [][3]int{{1, 1, 1}, {2, 3, 2}, {5, 4, 7}, {16, 18, 64}, {33, 64, 63}, {64, 64, 64}, {7, 1, 5}} {
		r, k, c := sh[0], sh[1], sh[2]
		a := randSparse(r, k, rng)
		b := randSparse(k, c, rng)
		want := NewMatrix(r, c)
		naiveMatMul(want, a, b)
		got := NewMatrix(r, c)
		got.Fill(3.25) // stale contents must be fully overwritten
		MatMul(got, a, b)
		matricesEqual(t, "MatMul", got, want)
	}
}

// TestAddMatMulTransATiledBitIdentical pins the tiled destination-major
// GW += dZᵀ·X kernel to the historical sample-major accumulation, starting
// from a non-zero dst so the accumulate-into-existing path is covered.
func TestAddMatMulTransATiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sh := range [][3]int{{1, 1, 1}, {3, 2, 2}, {7, 5, 4}, {16, 64, 18}, {33, 63, 64}, {64, 64, 64}, {5, 1, 3}} {
		n, r, c := sh[0], sh[1], sh[2]
		a := randSparse(n, r, rng)
		b := randSparse(n, c, rng)
		init := randSparse(r, c, rng)

		want := init.Clone()
		naiveAddMatMulTransA(want, a, b)
		got := init.Clone()
		AddMatMulTransA(got, a, b)
		matricesEqual(t, "AddMatMulTransA", got, want)

		// Set form: identical to accumulating into a zero dst, regardless of
		// the stale contents it overwrites.
		wantSet := NewMatrix(r, c)
		naiveAddMatMulTransA(wantSet, a, b)
		got3 := init.Clone()
		MatMulTransA(got3, a, b)
		matricesEqual(t, "MatMulTransA", got3, wantSet)
	}
}

// TestMatMulTransBTiledBitIdentical pins the tiled a·bᵀ kernel to the
// plain dot-product loop, bit for bit. Its zero bias adds nothing: a sum
// that starts at +0 never rounds to −0, so adding +0 keeps every bit.
func TestMatMulTransBTiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Odd and even dims: exercises the 2×2 tiles plus both tail paths.
	for _, sh := range []struct{ r, k, c int }{{1, 1, 1}, {2, 3, 2}, {3, 5, 4}, {4, 64, 64}, {5, 7, 9}, {64, 6, 1}} {
		a := NewMatrix(sh.r, sh.k)
		b := NewMatrix(sh.c, sh.k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		got := NewMatrix(sh.r, sh.c)
		MatMulTransB(got, a, b, NewVector(sh.c))
		for i := 0; i < sh.r; i++ {
			for o := 0; o < sh.c; o++ {
				var s float64
				for j := 0; j < sh.k; j++ {
					s += a.Data[i*sh.k+j] * b.Data[o*sh.k+j]
				}
				if got.Data[i*sh.c+o] != s {
					t.Fatalf("%v [%d,%d]: tiled %v != reference %v (must be bit-identical)",
						sh, i, o, got.Data[i*sh.c+o], s)
				}
			}
		}
	}
}

// BenchmarkAddMatMulTransA measures the GW += dZᵀ·X kernel at the PPO
// minibatch shape (64 samples, 64×64 weight gradient).
func BenchmarkAddMatMulTransA(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randSparse(64, 64, rng)
	x := randSparse(64, 64, rng)
	dst := NewMatrix(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddMatMulTransA(dst, a, x)
	}
}

// BenchmarkMatMulDX measures the dX = dZ·W kernel at the PPO minibatch
// shape.
func BenchmarkMatMulDX(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randSparse(64, 64, rng)
	w := randSparse(64, 64, rng)
	dst := NewMatrix(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, w)
	}
}

// BenchmarkMatMulTransB measures the a·bᵀ forward kernel at a 256-sample
// batch through a 64×64 layer.
func BenchmarkMatMulTransB(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(256, 64)
	w := NewMatrix(64, 64)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	dst, bias := NewMatrix(256, 64), NewVector(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransB(dst, a, w, bias)
	}
}
