package tensor

// Arena is a bump allocator for float64 scratch whose shapes repeat every
// call: the PPO and A2C updates carve their minibatch staging from one
// growable slab, and a Reset rewinds it all at once, so the steady state
// performs zero heap allocations (pinned by the AllocsPerRun tests).
//
// Lifetime rules (DESIGN.md §12): everything returned by an Arena is valid
// only until the next Reset. Callers must not retain arena-backed slices
// across Resets, and an Arena is not safe for concurrent use — each owner
// has its own.
type Arena struct {
	slab []float64
	n    int // bump offset
}

// NewArena returns an empty arena; the slab grows on demand.
func NewArena() *Arena { return &Arena{} }

// Reset rewinds the arena. All previously returned slices become invalid
// for reuse (their memory will be handed out again).
func (ar *Arena) Reset() { ar.n = 0 }

// F64 returns a zeroed float64 slice of length n valid until Reset.
func (ar *Arena) F64(n int) Vector {
	if ar.n+n > len(ar.slab) {
		ar.grow(n)
	}
	s := ar.slab[ar.n : ar.n+n]
	ar.n += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// grow extends the slab so n more elements fit. Growth doubles, so a
// warmup call reaches steady state after O(log) growths; previously handed
// out slices stay valid because the old slab is still referenced by them.
func (ar *Arena) grow(n int) {
	need := ar.n + n
	capNew := 2 * cap(ar.slab)
	if capNew < need {
		capNew = need
	}
	if capNew < 1024 {
		capNew = 1024
	}
	slab := make([]float64, capNew)
	copy(slab, ar.slab[:ar.n])
	ar.slab = slab
}
