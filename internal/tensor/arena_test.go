package tensor

import "testing"

func TestArenaReuseAndReset(t *testing.T) {
	ar := NewArena()
	v := ar.F64(10)
	for i := range v {
		v[i] = float64(i)
	}
	w := ar.F64(12)
	if len(w) != 12 {
		t.Fatalf("arena slice length %d, want 12", len(w))
	}
	for _, x := range w {
		if x != 0 {
			t.Fatal("arena slice not zeroed")
		}
	}
	if &w[0] == &v[0] {
		t.Fatal("consecutive carves share storage")
	}

	ar.Reset()
	v2 := ar.F64(10)
	for i, x := range v2 {
		if x != 0 {
			t.Fatalf("post-reset slice not zeroed at %d: %g", i, x)
		}
	}
	if &v2[0] != &v[0] {
		t.Fatal("reset did not rewind the slab")
	}

	// Growth mid-call must leave previously handed-out slices usable.
	big := ar.F64(100000)
	big[99999] = 1
	if v2[0] != 0 {
		t.Fatal("growth corrupted an earlier slice")
	}
}

func TestArenaSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting")
	}
	ar := NewArena()
	tick := func() {
		ar.Reset()
		_ = ar.F64(1000)
		_ = ar.F64(10 * 64)
		_ = ar.F64(100)
	}
	tick() // warm the slab
	if n := testing.AllocsPerRun(50, tick); n != 0 {
		t.Fatalf("steady-state arena tick allocates %v times, want 0", n)
	}
}
