package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*scale
}

func TestVectorAddSubMul(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 5, 6}
	v := NewVector(3)
	v.Add(a, b)
	if !Equal(v, Vector{5, 7, 9}) {
		t.Fatalf("Add = %v", v)
	}
}

func TestAllFinite(t *testing.T) {
	if !(Vector{1, 2}).AllFinite() {
		t.Fatal("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).AllFinite() {
		t.Fatal("NaN not caught")
	}
	if (Vector{math.Inf(1)}).AllFinite() {
		t.Fatal("Inf not caught")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Vector{1, 2}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone shares storage")
	}
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Matrix Clone shares storage")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At = %v", m.At(1, 2))
	}
	r := m.Row(1)
	r[0] = 7 // rows share storage
	if m.At(1, 0) != 7 {
		t.Fatal("Row should share storage")
	}
	m.Fill(3)
	for _, x := range m.Data {
		if x != 3 {
			t.Fatal("Fill failed")
		}
	}
	m.Zero()
	for _, x := range m.Data {
		if x != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatVecKnown(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	x := Vector{1, 1}
	dst := NewVector(3)
	MatVec(dst, m, x)
	if !Equal(dst, Vector{3, 7, 11}) {
		t.Fatalf("MatVec = %v", dst)
	}
	// mᵀ·y
	y := Vector{1, 0, 1}
	dt := NewVector(2)
	MatTVec(dt, m, y)
	if !Equal(dt, Vector{6, 8}) {
		t.Fatalf("MatTVec = %v", dt)
	}
}

func TestMatVecLinearity(t *testing.T) {
	// M(ax + by) == a·Mx + b·My, via testing/quick on small random inputs.
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMatrix(4, 3)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		x, y := NewVector(3), NewVector(3)
		for i := range x {
			x[i], y[i] = r.NormFloat64(), r.NormFloat64()
		}
		a, b := r.NormFloat64(), r.NormFloat64()
		comb := NewVector(3)
		for i := range comb {
			comb[i] = a*x[i] + b*y[i]
		}
		lhs := NewVector(4)
		MatVec(lhs, m, comb)
		mx, my := NewVector(4), NewVector(4)
		MatVec(mx, m, x)
		MatVec(my, m, y)
		for i := range lhs {
			if !almostEq(lhs[i], a*mx[i]+b*my[i], 1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := NewMatrix(3, 4), NewMatrix(4, 2), NewMatrix(2, 5)
		for _, m := range []*Matrix{a, b, c} {
			for i := range m.Data {
				m.Data[i] = r.NormFloat64()
			}
		}
		ab := NewMatrix(3, 2)
		MatMul(ab, a, b)
		abc1 := NewMatrix(3, 5)
		MatMul(abc1, ab, c)
		bc := NewMatrix(4, 5)
		MatMul(bc, b, c)
		abc2 := NewMatrix(3, 5)
		MatMul(abc2, a, bc)
		for i := range abc1.Data {
			if !almostEq(abc1.Data[i], abc2.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	id := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	out := NewMatrix(4, 4)
	MatMul(out, a, id)
	for i := range a.Data {
		if out.Data[i] != a.Data[i] {
			t.Fatal("A·I != A")
		}
	}
	MatMul(out, id, a)
	for i := range a.Data {
		if out.Data[i] != a.Data[i] {
			t.Fatal("I·A != A")
		}
	}
}

func TestAddOuterMatchesMatMul(t *testing.T) {
	// x·yᵀ as AddOuter must equal MatMul of column × row matrices.
	x := Vector{1, 2, 3}
	y := Vector{4, 5}
	m := NewMatrix(3, 2)
	m.AddOuter(2, x, y)
	xc := FromRows([][]float64{{1}, {2}, {3}})
	yr := FromRows([][]float64{{4, 5}})
	want := NewMatrix(3, 2)
	MatMul(want, xc, yr)
	for i := range want.Data {
		want.Data[i] *= 2
	}
	for i := range m.Data {
		if !almostEq(m.Data[i], want.Data[i], eps) {
			t.Fatalf("AddOuter = %v want %v", m.Data, want.Data)
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	m := NewMatrix(2, 3)
	cases := map[string]func(){
		"MatVec":        func() { MatVec(NewVector(2), m, NewVector(2)) },
		"MatTVec":       func() { MatTVec(NewVector(2), m, NewVector(2)) },
		"MatMul":        func() { MatMul(NewMatrix(2, 2), m, NewMatrix(2, 2)) },
		"AddOuter":      func() { m.AddOuter(1, NewVector(3), NewVector(3)) },
		"VecAdd":        func() { NewVector(2).Add(NewVector(3), NewVector(3)) },
		"negativeShape": func() { NewMatrix(-1, 2) },
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

func TestEqual(t *testing.T) {
	if Equal(Vector{1}, Vector{1, 2}) {
		t.Fatal("length mismatch reported equal")
	}
	if !Equal(Vector{1, 2}, Vector{1, 2}) {
		t.Fatal("equal vectors reported unequal")
	}
	if Equal(Vector{1, 2}, Vector{1, 3}) {
		t.Fatal("unequal vectors reported equal")
	}
}
