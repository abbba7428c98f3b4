package tensor

import (
	"math/rand"
	"testing"
)

func randMatrix(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestMatMulTransBMatchesMatVec pins the batching contract: row i of
// MatMulTransB(dst, A, W, bias) must be bit-identical to MatVec(y, W,
// A.Row(i)) followed by y.Add(y, bias), because the batched kernels
// promise to reproduce the per-sample floating-point accumulation order
// exactly.
func TestMatMulTransBMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 4, 3}, {5, 8, 6}, {17, 13, 11}, {16, 18, 64}, {7, 64, 3}} {
		n, k, out := dims[0], dims[1], dims[2]
		a := randMatrix(n, k, rng)
		w := randMatrix(out, k, rng)
		for bi, bias := range []Vector{NewVector(out), randMatrix(1, out, rng).Data} {
			dst := NewMatrix(n, out)
			MatMulTransB(dst, a, w, bias)
			y := NewVector(out)
			for i := 0; i < n; i++ {
				MatVec(y, w, Vector(a.Data[i*k:(i+1)*k]))
				y.Add(y, bias)
				for j, want := range y {
					if got := dst.At(i, j); got != want {
						t.Fatalf("dims %v bias %d row %d col %d: %v != %v", dims, bi, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestAddMatMulTransAMatchesAddOuter pins the gradient-accumulation
// contract: dst += aᵀ·b must equal n successive rank-1 AddOuter updates
// bit for bit.
func TestAddMatMulTransAMatchesAddOuter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, out, in := 9, 5, 7
	a := randMatrix(n, out, rng)
	b := randMatrix(n, in, rng)
	a.Data[3] = 0 // exercise the zero-skip path
	got := randMatrix(out, in, rng)
	want := got.Clone()
	AddMatMulTransA(got, a, b)
	for s := 0; s < n; s++ {
		want.AddOuter(1, Vector(a.Data[s*out:(s+1)*out]), Vector(b.Data[s*in:(s+1)*in]))
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestAddRowSumsMatchesVectorAdd pins the bias-gradient contract: column
// sums accumulate rows in ascending order, matching a loop of Vector.Add.
func TestAddRowSumsMatchesVectorAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randMatrix(6, 4, rng)
	got := Vector{1, 2, 3, 4}
	want := got.Clone()
	AddRowSums(got, m)
	for i := 0; i < m.Rows; i++ {
		want.Add(want, Vector(m.Data[i*m.Cols:(i+1)*m.Cols]))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("col %d: %v != %v", j, got[j], want[j])
		}
	}
}

func TestEnsureShape(t *testing.T) {
	m := NewMatrix(4, 5)
	m.Data[0] = 42
	// Shrinking reuses the backing array.
	r := EnsureShape(m, 2, 3)
	if r != m || r.Rows != 2 || r.Cols != 3 || len(r.Data) != 6 {
		t.Fatalf("shrink did not reuse: %+v", r)
	}
	// Growing within capacity reuses too.
	r = EnsureShape(r, 5, 4)
	if r != m || len(r.Data) != 20 {
		t.Fatalf("grow within cap did not reuse: %+v", r)
	}
	// Growing past capacity allocates fresh.
	r = EnsureShape(m, 6, 5)
	if r == m {
		t.Fatal("grow past cap reused undersized array")
	}
	if r.Rows != 6 || r.Cols != 5 {
		t.Fatalf("bad shape %dx%d", r.Rows, r.Cols)
	}
	// nil allocates.
	if r = EnsureShape(nil, 2, 2); r == nil || r.Rows != 2 || r.Cols != 2 {
		t.Fatalf("nil case: %+v", r)
	}
}

// TestMatMulParallelDeterministic checks that MatMul's rows are
// independent: the whole product equals the same product computed one row
// at a time, so a pool that splits a batch into row blocks (the update
// engine's gradient shards) cannot change any result bit.
func TestMatMulParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(64, 48, rng)
	b := randMatrix(48, 48, rng)
	par := NewMatrix(64, 48)
	MatMul(par, a, b)
	// One row at a time through the same kernel.
	seq := NewMatrix(64, 48)
	for i := 0; i < a.Rows; i++ {
		ar := &Matrix{Rows: 1, Cols: a.Cols, Data: a.Data[i*a.Cols : (i+1)*a.Cols]}
		dr := &Matrix{Rows: 1, Cols: seq.Cols, Data: seq.Data[i*seq.Cols : (i+1)*seq.Cols]}
		MatMul(dr, ar, b)
	}
	for i := range par.Data {
		if par.Data[i] != seq.Data[i] {
			t.Fatalf("element %d: whole %v != row by row %v", i, par.Data[i], seq.Data[i])
		}
	}
}

func TestBatchKernelShapePanics(t *testing.T) {
	cases := map[string]func(){
		"MatMulTransB":            func() { MatMulTransB(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 4), NewVector(2)) },
		"MatMulTransB bias":       func() { MatMulTransB(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 3), NewVector(3)) },
		"MatMulTransB no bias":    func() { MatMulTransB(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 3), nil) },
		"MatMulTransB short bias": func() { MatMulTransB(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 3), NewVector(1)) },
		"MatMulTransB width":      func() { MatMulTransB(NewMatrix(2, 3), NewMatrix(2, 5), NewMatrix(4, 5), NewVector(4)) },
		"MatMulTransB cols":       func() { MatMulTransB(NewMatrix(2, 4), NewMatrix(2, 5), NewMatrix(4, 3), NewVector(4)) },
		"AddMatMulTransA":         func() { AddMatMulTransA(NewMatrix(2, 2), NewMatrix(3, 2), NewMatrix(4, 2)) },
		"AddRowSums":              func() { AddRowSums(NewVector(3), NewMatrix(2, 2)) },
		"TanhBackward":            func() { TanhBackward(NewMatrix(2, 2), NewMatrix(2, 2), NewMatrix(2, 2), NewVector(3)) },
		"AdamStep":                func() { AdamStep(NewVector(3), NewVector(3), NewVector(2), NewVector(3), AdamCoeffs{}) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}
