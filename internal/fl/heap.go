package fl

// Heap is a hand-rolled binary min-heap over concrete elements. It exists
// because container/heap boxes every element into an interface — one heap
// allocation per push — which would put the simulator's event loops off the
// zero-allocation hot path (DESIGN.md §10). Pushes and pops move concrete
// structs instead; after the backing slice has grown to its working set the
// heap performs no allocation.
//
// The ordering function must be a strict weak order; for deterministic
// simulation it should be a *total* order (break ties on an index), so the
// pop sequence is independent of heap-internal layout. The async engine's
// event heap and the hierarchical engine's arrival queues are both built on
// this type.
type Heap[E any] struct {
	s    []E
	less func(a, b E) bool
}

// NewHeap builds a heap with the given ordering and initial capacity.
func NewHeap[E any](less func(a, b E) bool, capacity int) *Heap[E] {
	if less == nil {
		panic("fl: NewHeap with nil ordering")
	}
	return &Heap[E]{s: make([]E, 0, capacity), less: less}
}

// Len returns the number of queued elements.
func (h *Heap[E]) Len() int { return len(h.s) }

// Push inserts an element.
func (h *Heap[E]) Push(e E) {
	h.s = append(h.s, e)
	s := h.s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// Pop removes and returns the minimum element. It panics on an empty heap.
func (h *Heap[E]) Pop() E {
	s := h.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	var zero E
	s[n] = zero // release references held by pointerful payloads
	s = s[:n]
	h.s = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h.less(s[l], s[least]) {
			least = l
		}
		if r < n && h.less(s[r], s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// Peek returns the minimum element without removing it. It panics on an
// empty heap.
func (h *Heap[E]) Peek() E { return h.s[0] }
