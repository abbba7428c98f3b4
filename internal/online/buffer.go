// Package online closes the guard-audit loop into training: it replays
// persisted guard audit logs back into (state, action, fallback-reason)
// transitions, accumulates them in a bounded deterministic replay buffer,
// and — when the parsed OOD drift statistics cross a hysteresis gate —
// fine-tunes a candidate actor by behavior cloning on the logged
// decisions. Every retrain is checkpointed atomically and shadow-evaluated
// against the current actor on the chaos harness's fixed probe set before
// promotion; a regression rolls the candidate back, a win hot-swaps it
// into the serving loop through the OnPromote hook. Given the same audit
// log and the same starting agent, every retrain — candidate weights,
// probe verdict, promotion decision — is deterministic.
package online

import (
	"repro/internal/tensor"
)

// Transition is one replayed guarded decision: the (normalized) state the
// actor saw, the raw action equivalent of the served plan, and the
// provenance needed to weigh it (which layer served, why the actor was
// bypassed, what the decision realized).
type Transition struct {
	// Iter and Clock locate the decision in its serving session.
	Iter  int
	Clock float64
	// State is the observation, normalized exactly as serving normalized it.
	State tensor.Vector
	// Action is the served plan mapped back through the inverse action
	// box: the raw [−1,1] vector whose env.MapAction image is the plan.
	Action tensor.Vector
	// Layer names the scheduler that served the plan.
	Layer string
	// Reason is the first guard event of the decision ("" for a clean
	// actor-served one) — the fallback reason when a fallback served.
	Reason string
	// Score is the decision's OOD drift score (NaN when unscored).
	Score float64
	// Cost is the realized iteration cost (NaN when never observed).
	Cost float64
}

// Buffer is the bounded replay buffer: strict FIFO, oldest evicted first,
// no sampling — consumers read the retained window in arrival order, so
// the buffer contents are a pure function of the ingested sequence.
type Buffer struct {
	cap     int
	items   []Transition
	dropped int
	total   int
}

// NewBuffer returns a replay buffer retaining at most capacity
// transitions (capacity must be positive).
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{cap: capacity}
}

// Add appends one transition, evicting the oldest when full.
func (b *Buffer) Add(t Transition) {
	b.total++
	if len(b.items) >= b.cap {
		n := copy(b.items, b.items[1:])
		b.items = b.items[:n]
		b.dropped++
	}
	b.items = append(b.items, t)
}

// Len returns the number of retained transitions.
func (b *Buffer) Len() int { return len(b.items) }

// Total returns the lifetime ingest count.
func (b *Buffer) Total() int { return b.total }

// Dropped returns how many transitions eviction discarded.
func (b *Buffer) Dropped() int { return b.dropped }

// Items exposes the retained window in arrival order. The slice is owned
// by the buffer; callers must not mutate it.
func (b *Buffer) Items() []Transition { return b.items }
