package fl

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHeapPopsSorted checks the heap against a reference sort on random
// inputs, including duplicate keys (the tie-break keeps the order total).
func TestHeapPopsSorted(t *testing.T) {
	type ev struct {
		t  float64
		id int
	}
	less := func(a, b ev) bool {
		if a.t != b.t {
			return a.t < b.t
		}
		return a.id < b.id
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		h := NewHeap(less, 0)
		want := make([]ev, n)
		for i := range want {
			// Coarse keys force ties so the id tie-break is exercised.
			want[i] = ev{t: float64(rng.Intn(20)), id: i}
			h.Push(want[i])
		}
		sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
		for i, w := range want {
			if got := h.Pop(); got != w {
				t.Fatalf("trial %d: pop %d = %+v, want %+v", trial, i, got, w)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: %d elements left after draining", trial, h.Len())
		}
	}
}

// TestHeapInterleaved pushes and pops in interleaved bursts: the minimum
// must always be correct relative to what remains.
func TestHeapInterleaved(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	h := NewHeap(less, 4)
	rng := rand.New(rand.NewSource(11))
	var ref []int
	for op := 0; op < 2000; op++ {
		if h.Len() == 0 || rng.Intn(3) > 0 {
			v := rng.Intn(1000)
			h.Push(v)
			ref = append(ref, v)
			continue
		}
		sort.Ints(ref)
		if got := h.Pop(); got != ref[0] {
			t.Fatalf("op %d: pop %d, want %d", op, got, ref[0])
		}
		ref = ref[1:]
	}
}
