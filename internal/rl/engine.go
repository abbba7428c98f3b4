package rl

import (
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/tensor"
)

// This file implements the deterministic data-parallel training engine used
// by the PPO and A2C updates. A minibatch is cut into fixed gradShardRows-row
// blocks; each block owns a gradient replica of the actor and critic
// (weights shared, gradients and forward caches private), so the job pool
// (internal/par) can process disjoint blocks concurrently without
// synchronization. The pool is the update's only parallelism: every kernel
// a block calls runs on its worker's goroutine, the same code the primary
// networks run. The per-block gradients are then folded into the primary
// networks by nn.MergeGradTree, whose reduction shape depends only on the
// block count — never on the worker count — so the merged gradient, and
// therefore the entire training trajectory, is bit-identical whether the
// engine runs on one goroutine or eight. This is the same invariance contract the rollout
// collector (core.Config.Workers) and the hierarchical federation engine
// already keep: parallelism changes wall-clock time, never results. The
// actor's batched methods are bit-identical per row to its per-sample ones,
// and accumulate gradients in the per-sample order (pinned by
// TestLogProbBatchMatchesLogProb and TestBackwardLogProbBatchMatchesSequential).

// gradShardRows is the fixed row-block size of the engine. The block
// decomposition — and with it every floating-point grouping in the merged
// gradient — is a function of the minibatch size alone, which is what makes
// the update worker-count invariant. 16 rows keeps per-block kernel calls
// large enough to amortize dispatch while giving a 64-row minibatch four
// blocks to spread across workers.
const gradShardRows = 16

// shardEngine drives the two waves of one minibatch step: a forward wave
// (policy log-probs and critic values, per block) and a backward wave
// (policy and critic backprop per block) followed by the gradient merge.
type shardEngine struct {
	workers int

	actor  *GaussianPolicy
	critic *nn.MLP // nil for the imitator, which runs no critic

	// Merge destinations, captured once: Policy.Params() appends the log-σ
	// view to the network's cached slice and therefore allocates per call.
	actorParams  []nn.Param
	criticParams []nn.Param

	// Optional cost critic of the constrained update, attached once before
	// the first ensure. Its replicas ride the same block decomposition and
	// merge tree as the critic's, so the constrained update inherits the
	// worker-invariance contract unchanged.
	costCritic *nn.MLP
	costParams []nn.Param

	// Per-block replicas and their cached parameter views, grown on demand
	// (the full-batch KL pass needs more blocks than a minibatch).
	ashards []*GaussianPolicy
	cshards []*nn.MLP
	kshards []*nn.MLP
	aparams [][]nn.Param
	cparams [][]nn.Param
	kparams [][]nn.Param

	// Persistent per-block view headers into the caller's staging matrices.
	// Individually allocated so their addresses are stable: the replicas'
	// forward caches are keyed on them.
	sviews, aviews, dvviews, dkviews []*tensor.Matrix

	vbuf tensor.Vector // critic values of the forward wave
	kbuf tensor.Vector // cost critic values, row-major m×NumConstraints

	// The current wave's arguments, staged for the block jobs, which are
	// built once so that a serial wave hands the pool no new closure.
	s, a                *tensor.Matrix
	logp, upstream      tensor.Vector
	dV, dK              *tensor.Matrix
	withCritic          bool
	forwardJob, backJob func(b int) error
}

// newShardEngine builds the engine of an update; a nil critic (the
// imitator's) clones no critic replicas.
func newShardEngine(actor *GaussianPolicy, critic *nn.MLP, workers int) *shardEngine {
	e := &shardEngine{
		workers:     workers,
		actor:       actor,
		critic:      critic,
		actorParams: actor.Params(),
	}
	if critic != nil {
		e.criticParams = critic.Params()
	}
	e.forwardJob = func(b int) error { e.forwardBlock(b); return nil }
	e.backJob = func(b int) error { e.backwardBlock(b); return nil }
	return e
}

// attachCostCritic registers the constrained update's cost critic. It must
// be called before the first forward (replica pools grow in lockstep).
func (e *shardEngine) attachCostCritic(k *nn.MLP) {
	e.costCritic = k
	e.costParams = k.Params()
}

// ensure grows the replica pool to blocks and the value buffer to m rows.
func (e *shardEngine) ensure(blocks, m int) {
	for len(e.ashards) < blocks {
		as := e.actor.cloneGradShard()
		e.ashards = append(e.ashards, as)
		e.aparams = append(e.aparams, as.Params())
		e.sviews = append(e.sviews, &tensor.Matrix{})
		e.aviews = append(e.aviews, &tensor.Matrix{})
		if e.critic != nil {
			cs := e.critic.CloneGradOnly()
			e.cshards = append(e.cshards, cs)
			e.cparams = append(e.cparams, cs.Params())
			e.dvviews = append(e.dvviews, &tensor.Matrix{})
		}
		if e.costCritic != nil {
			ks := e.costCritic.CloneGradOnly()
			e.kshards = append(e.kshards, ks)
			e.kparams = append(e.kparams, ks.Params())
			e.dkviews = append(e.dkviews, &tensor.Matrix{})
		}
	}
	if cap(e.vbuf) < m {
		e.vbuf = tensor.NewVector(m)
	}
	e.vbuf = e.vbuf[:m]
	if e.costCritic != nil {
		if cap(e.kbuf) < m*NumConstraints {
			e.kbuf = tensor.NewVector(m * NumConstraints)
		}
		e.kbuf = e.kbuf[:m*NumConstraints]
	}
}

func blockCount(m int) int { return (m + gradShardRows - 1) / gradShardRows }

// forward runs the forward wave over S/A: per-block policy log-probs into
// logp and, when withCritic, critic values into the returned vector (owned
// by the engine, valid until the next forward). Blocks touch disjoint
// replicas and disjoint output rows, so which worker runs a block cannot
// affect any result bit.
func (e *shardEngine) forward(S, A *tensor.Matrix, logp tensor.Vector, withCritic bool) tensor.Vector {
	m := S.Rows
	blocks := blockCount(m)
	e.ensure(blocks, m)
	e.s, e.a, e.logp, e.withCritic = S, A, logp, withCritic
	_ = par.Run(blocks, e.workers, e.forwardJob) // block jobs cannot fail
	if withCritic {
		return e.vbuf
	}
	return nil
}

func (e *shardEngine) forwardBlock(b int) {
	S, A := e.s, e.a
	lo := b * gradShardRows
	hi := min(lo+gradShardRows, S.Rows)
	sv := e.sviews[b]
	sv.Rows, sv.Cols, sv.Data = hi-lo, S.Cols, S.Data[lo*S.Cols:hi*S.Cols]
	av := e.aviews[b]
	av.Rows, av.Cols, av.Data = hi-lo, A.Cols, A.Data[lo*A.Cols:hi*A.Cols]
	e.ashards[b].LogProbBatch(sv, av, e.logp[lo:hi])
	if e.withCritic {
		out := e.cshards[b].ForwardBatch(sv)
		copy(e.vbuf[lo:hi], out.Data)
		if e.costCritic != nil {
			kout := e.kshards[b].ForwardBatch(sv)
			copy(e.kbuf[lo*NumConstraints:hi*NumConstraints], kout.Data)
		}
	}
}

// backward runs the backward wave for the staging views set up by the
// immediately preceding forward call (same row count, S/A unchanged in
// between), then merges the per-block gradients into the primary actor and
// critic, overwriting their gradient accumulators. dK is the cost critic's
// upstream (row-major m×NumConstraints); nil skips the cost wave.
func (e *shardEngine) backward(upstream tensor.Vector, dV, dK *tensor.Matrix, withCritic bool) {
	blocks := blockCount(len(upstream))
	e.upstream, e.dV, e.dK, e.withCritic = upstream, dV, dK, withCritic
	_ = par.Run(blocks, e.workers, e.backJob) // block jobs cannot fail
	nn.MergeGradTree(e.actorParams, e.aparams[:blocks])
	if withCritic {
		nn.MergeGradTree(e.criticParams, e.cparams[:blocks])
		if e.costCritic != nil && dK != nil {
			nn.MergeGradTree(e.costParams, e.kparams[:blocks])
		}
	}
}

func (e *shardEngine) backwardBlock(b int) {
	lo := b * gradShardRows
	hi := min(lo+gradShardRows, len(e.upstream))
	e.ashards[b].BackwardLogProbBatch(e.sviews[b], e.aviews[b], e.upstream[lo:hi])
	if e.withCritic {
		dv := e.dvviews[b]
		dv.Rows, dv.Cols, dv.Data = hi-lo, 1, e.dV.Data[lo:hi]
		e.cshards[b].BackwardBatchParams(dv)
		if e.costCritic != nil && e.dK != nil {
			dk := e.dkviews[b]
			dk.Rows, dk.Cols, dk.Data = hi-lo, NumConstraints, e.dK.Data[lo*NumConstraints:hi*NumConstraints]
			e.kshards[b].BackwardBatchParams(dk)
		}
	}
}
