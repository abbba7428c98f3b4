package rl

import (
	"fmt"

	"repro/internal/tensor"
)

// NumConstraints is the number of per-transition constraint cost signals of
// the Lagrangian update (deadline, energy — matching env.NumCostSignals). A
// compile-time size keeps the transition flat and the cost staging
// allocation-free.
const NumConstraints = 2

// CostVec is one value per constraint — a cost sample, a cost-value
// estimate, a Lagrange multiplier, or a cost limit, depending on context.
type CostVec [NumConstraints]float64

// Transition is one (s, a, r, s') experience with the sampling policy's
// log-density and the critic's value estimate, as stored in Algorithm 1's
// replay buffer D. Cost and CostValue carry the per-constraint cost signal
// and the cost critic's estimates; both stay zero in unconstrained training.
type Transition struct {
	State     tensor.Vector
	Action    tensor.Vector
	Reward    float64
	LogProb   float64
	Value     float64
	Done      bool
	Cost      CostVec
	CostValue CostVec
}

// Buffer is the experience replay buffer D of Algorithm 1: it fills to a
// fixed capacity, the agent runs M PPO epochs over it, and it is cleared
// (lines 16–23). It is an on-policy store, not a DQN-style reservoir.
type Buffer struct {
	capacity int
	items    []Transition
}

// NewBuffer creates a buffer with the given capacity (|D| > 0).
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("rl: buffer capacity %d must be positive", capacity))
	}
	return &Buffer{capacity: capacity, items: make([]Transition, 0, capacity)}
}

// Add appends a transition; it panics when the buffer is already full, since
// Algorithm 1 always drains a full buffer before sampling more.
func (b *Buffer) Add(t Transition) {
	if b.Full() {
		panic("rl: Add to full buffer; drain with Update and Clear first")
	}
	b.items = append(b.items, t)
}

// Len returns the number of stored transitions.
func (b *Buffer) Len() int { return len(b.items) }

// Cap returns the buffer capacity |D|.
func (b *Buffer) Cap() int { return b.capacity }

// Full reports whether the buffer reached capacity.
func (b *Buffer) Full() bool { return len(b.items) >= b.capacity }

// Items exposes the stored transitions (read-only by convention).
func (b *Buffer) Items() []Transition { return b.items }

// Clear empties the buffer (Algorithm 1 line 23).
func (b *Buffer) Clear() { b.items = b.items[:0] }

// Batch is the flattened training view of a buffer after GAE: everything
// the PPO update needs.
type Batch struct {
	States     []tensor.Vector
	Actions    []tensor.Vector
	OldLogProb []float64
	Advantages []float64
	Returns    []float64

	// Constrained extension, filled by MakeConstrainedBatchInto: per-
	// constraint cost advantages and cost returns (same GAE recursion over
	// the cost signal), plus the batch-mean episodic cost the multiplier
	// update compares against its limit. All empty/zero for plain batches.
	CostAdv  [NumConstraints][]float64
	CostRet  [NumConstraints][]float64
	CostMean CostVec

	// GAE staging, private to MakeBatchInto so a reused Batch converts a
	// full buffer without allocating.
	rewards, values []float64
	dones           []bool
	costs           [NumConstraints][]float64
	costValues      [NumConstraints][]float64
}

// Len returns the number of samples.
func (b *Batch) Len() int { return len(b.States) }

// grow resizes every slice to n samples, reusing capacity when possible.
func (b *Batch) grow(n int) {
	if cap(b.States) < n {
		b.States = make([]tensor.Vector, n)
		b.Actions = make([]tensor.Vector, n)
		b.OldLogProb = make([]float64, n)
		b.Advantages = make([]float64, n)
		b.Returns = make([]float64, n)
		b.rewards = make([]float64, n)
		b.values = make([]float64, n)
		b.dones = make([]bool, n)
		return
	}
	b.States = b.States[:n]
	b.Actions = b.Actions[:n]
	b.OldLogProb = b.OldLogProb[:n]
	b.Advantages = b.Advantages[:n]
	b.Returns = b.Returns[:n]
	b.rewards = b.rewards[:n]
	b.values = b.values[:n]
	b.dones = b.dones[:n]
}

// growCosts resizes the constrained extension to n samples, reusing
// capacity when possible. Separate from grow so plain batches never touch
// the cost slices.
func (b *Batch) growCosts(n int) {
	for j := 0; j < NumConstraints; j++ {
		if cap(b.CostAdv[j]) < n {
			b.CostAdv[j] = make([]float64, n)
			b.CostRet[j] = make([]float64, n)
			b.costs[j] = make([]float64, n)
			b.costValues[j] = make([]float64, n)
			continue
		}
		b.CostAdv[j] = b.CostAdv[j][:n]
		b.CostRet[j] = b.CostRet[j][:n]
		b.costs[j] = b.costs[j][:n]
		b.costValues[j] = b.costValues[j][:n]
	}
}

// MakeBatchInto converts buffered transitions into a PPO batch, writing
// into a reusable Batch: once dst's slices reach the buffer capacity,
// converting a drained buffer performs no heap allocations. lastValue
// bootstraps the value of the state following the final transition (0 when
// that transition ended an episode). Advantages are normalized. It returns
// dst.
func MakeBatchInto(dst *Batch, buf *Buffer, lastValue, gamma, lambda float64) *Batch {
	items := buf.Items()
	n := len(items)
	dst.grow(n)
	for i, tr := range items {
		dst.rewards[i] = tr.Reward
		dst.values[i] = tr.Value
		dst.dones[i] = tr.Done
		dst.States[i] = tr.State
		dst.Actions[i] = tr.Action
		dst.OldLogProb[i] = tr.LogProb
	}
	GAEInto(dst.Advantages, dst.Returns, dst.rewards, dst.values, lastValue, dst.dones, gamma, lambda)
	NormalizeAdvantages(dst.Advantages)
	return dst
}

// MakeConstrainedBatchInto extends MakeBatchInto with per-constraint cost
// GAE for the Lagrangian update: for each constraint j it runs the same GAE
// recursion over (Cost[j], CostValue[j]) with bootstrap lastCost[j], filling
// dst.CostAdv[j]/dst.CostRet[j] and the batch-mean cost dst.CostMean[j].
// Cost advantages are deliberately NOT variance-normalized — their scale
// against the reward advantage is exactly what the Lagrange multiplier
// weighs. Reuses dst's slices like MakeBatchInto; returns dst.
func MakeConstrainedBatchInto(dst *Batch, buf *Buffer, lastValue float64, lastCost CostVec, gamma, lambda float64) *Batch {
	MakeBatchInto(dst, buf, lastValue, gamma, lambda)
	items := buf.Items()
	n := len(items)
	dst.growCosts(n)
	for j := 0; j < NumConstraints; j++ {
		costs, costValues := dst.costs[j], dst.costValues[j]
		var sum float64
		for i := range items {
			costs[i] = items[i].Cost[j]
			costValues[i] = items[i].CostValue[j]
			sum += costs[i]
		}
		GAEInto(dst.CostAdv[j], dst.CostRet[j], costs, costValues, lastCost[j], dst.dones, gamma, lambda)
		if n > 0 {
			dst.CostMean[j] = sum / float64(n)
		} else {
			dst.CostMean[j] = 0
		}
	}
	return dst
}
