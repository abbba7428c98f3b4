package rl

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// PPOConfig holds the hyperparameters of the PPO-clip update.
type PPOConfig struct {
	// Gamma is the discount factor γ.
	Gamma float64
	// Lambda is the GAE smoothing λ (distinct from the cost weight λ).
	Lambda float64
	// ClipEps is the surrogate clipping radius ε.
	ClipEps float64
	// ActorLR and CriticLR are the Adam learning rates.
	ActorLR, CriticLR float64
	// Epochs is M, the number of passes over the buffer per update
	// (Algorithm 1 line 18).
	Epochs int
	// MinibatchSize splits the buffer per epoch; 0 uses the whole buffer.
	MinibatchSize int
	// EntropyCoef weights the entropy bonus that sustains exploration.
	EntropyCoef float64
	// ValueCoef weights the critic loss in the reported training loss.
	ValueCoef float64
	// MaxGradNorm clips the global gradient norm (≤ 0 disables).
	MaxGradNorm float64
	// TargetKL stops the update early when the sampled KL divergence from
	// θ_old exceeds it (≤ 0 disables).
	TargetKL float64
	// Workers caps the goroutines of the data-parallel update engine. The
	// engine's gradients are bit-identical at any worker count (fixed block
	// decomposition plus a worker-independent merge tree), so this knob
	// changes wall-clock time only. 0 or 1 runs single-threaded.
	Workers int
	// Constraint configures the Lagrangian constrained variant (see
	// constrained.go); the zero value is plain unconstrained PPO.
	Constraint ConstraintConfig
}

// DefaultPPOConfig returns hyperparameters that train the paper's agent
// stably.
func DefaultPPOConfig() PPOConfig {
	return PPOConfig{
		Gamma:         0.95,
		Lambda:        0.95,
		ClipEps:       0.2,
		ActorLR:       3e-4,
		CriticLR:      1e-3,
		Epochs:        8,
		MinibatchSize: 64,
		EntropyCoef:   1e-3,
		ValueCoef:     0.5,
		MaxGradNorm:   0.5,
		TargetKL:      0.05,
	}
}

// Validate checks the configuration.
func (c PPOConfig) Validate() error {
	switch {
	case c.Gamma < 0 || c.Gamma > 1:
		return fmt.Errorf("rl: γ = %v outside [0,1]", c.Gamma)
	case c.Lambda < 0 || c.Lambda > 1:
		return fmt.Errorf("rl: GAE λ = %v outside [0,1]", c.Lambda)
	case c.ClipEps <= 0:
		return fmt.Errorf("rl: clip ε = %v must be positive", c.ClipEps)
	case c.ActorLR <= 0 || c.CriticLR <= 0:
		return fmt.Errorf("rl: learning rates must be positive")
	case c.Epochs <= 0:
		return fmt.Errorf("rl: epochs M = %d must be positive", c.Epochs)
	case c.MinibatchSize < 0:
		return fmt.Errorf("rl: minibatch size %d negative", c.MinibatchSize)
	case c.EntropyCoef < 0 || c.ValueCoef < 0:
		return fmt.Errorf("rl: negative loss coefficients")
	case c.Workers < 0:
		return fmt.Errorf("rl: workers %d must not be negative", c.Workers)
	}
	return c.Constraint.Validate()
}

// UpdateStats summarizes one PPO update for the Fig. 6(a) training-loss
// curve and debugging.
type UpdateStats struct {
	// PolicyLoss is the mean clipped-surrogate loss.
	PolicyLoss float64
	// ValueLoss is the mean squared TD error of the critic.
	ValueLoss float64
	// Entropy is the policy entropy at update time.
	Entropy float64
	// ApproxKL estimates KL(θ_old ‖ θ) from the sampled ratios.
	ApproxKL float64
	// ClipFraction is the share of samples whose ratio was clipped.
	ClipFraction float64
	// EpochsRun counts epochs before a TargetKL early stop.
	EpochsRun int
	// SkippedMinibatches counts minibatches dropped by the NaN guard: a
	// non-finite loss or gradient norm skips the optimizer step and leaves
	// the minibatch out of every statistic.
	SkippedMinibatches int
	// Restored reports that the final parameters were non-finite and the
	// update was rolled back to the weights it started from.
	Restored bool
	// CostValueLoss is the mean squared TD error of the cost critic
	// (constrained updates only).
	CostValueLoss float64
	// MeanCost is the batch-mean per-constraint cost this update saw.
	MeanCost CostVec
	// Multipliers holds the Lagrange multipliers after this update's
	// projected-ascent step.
	Multipliers CostVec
}

// Loss is the combined training loss reported in Fig. 6(a):
// policy + c_v·value − c_e·entropy.
func (s UpdateStats) Loss(cfg PPOConfig) float64 {
	return s.PolicyLoss + cfg.ValueCoef*s.ValueLoss - cfg.EntropyCoef*s.Entropy
}

// PPO couples an actor policy and a critic value network with their
// optimizers.
type PPO struct {
	Cfg    PPOConfig
	Actor  Policy
	Critic *nn.MLP
	// CostCritic regresses per-constraint discounted cost returns; nil for
	// plain PPO (set by NewConstrainedPPO).
	CostCritic *nn.MLP

	actorOpt  *nn.Adam
	criticOpt *nn.Adam
	costOpt   *nn.Adam
	lambda    CostVec // Lagrange multipliers λ_j
	rng       *rand.Rand

	// Data-parallel engine state, created on the first Update. Everything
	// below is reused across updates so the steady-state update path
	// allocates nothing (pinned by TestPPOUpdateSteadyStateAllocs).
	engine                          *shardEngine
	arena                           *tensor.Arena
	scratch                         ppoScratch // minibatch staging
	fullScratch                     ppoScratch // full-batch KL staging
	idx                             []int
	swap                            func(i, j int)
	actorSnap, criticSnap, costSnap [][]float64
}

// NewPPO wires the actor and critic to fresh Adam optimizers. The actor must
// be a *GaussianPolicy: the update runs only on the data-parallel engine,
// which trains no other.
func NewPPO(cfg PPOConfig, actor Policy, critic *nn.MLP, rng *rand.Rand) (*PPO, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkActorCritic(actor, critic); err != nil {
		return nil, err
	}
	return &PPO{
		Cfg:       cfg,
		Actor:     actor,
		Critic:    critic,
		actorOpt:  nn.NewAdam(cfg.ActorLR),
		criticOpt: nn.NewAdam(cfg.CriticLR),
		rng:       rng,
	}, nil
}

// checkActorCritic is the shape check NewPPO and NewA2C share.
func checkActorCritic(actor Policy, critic *nn.MLP) error {
	if _, ok := actor.(*GaussianPolicy); !ok {
		return fmt.Errorf("rl: actor %T is not a *GaussianPolicy", actor)
	}
	if critic.OutDim() != 1 {
		return fmt.Errorf("rl: critic must output one value, has %d", critic.OutDim())
	}
	if critic.InDim() != actor.StateDim() {
		return fmt.Errorf("rl: actor/critic state dims differ: %d vs %d", actor.StateDim(), critic.InDim())
	}
	return nil
}

// Value returns the critic's estimate V(s).
func (p *PPO) Value(s tensor.Vector) float64 {
	return p.Critic.Forward(s)[0]
}

// Update runs M epochs of minibatch PPO-clip over the batch and returns the
// aggregated statistics. The batch must be non-empty.
//
// Every minibatch runs through the data-parallel engine (engine.go): fixed
// 16-row blocks with per-block gradient replicas, merged by a
// worker-count-independent reduction tree, then a fused clip+Adam step. The
// result is bit-identical at any Cfg.Workers setting, and the steady-state
// path performs zero heap allocations.
func (p *PPO) Update(batch *Batch) (UpdateStats, error) {
	n := batch.Len()
	if n == 0 {
		return UpdateStats{}, fmt.Errorf("rl: empty batch")
	}
	mb := p.Cfg.MinibatchSize
	if mb <= 0 || mb > n {
		mb = n
	}
	constrained := p.CostCritic != nil
	if constrained && len(batch.CostAdv[0]) != n {
		return UpdateStats{}, fmt.Errorf("rl: constrained update needs a constrained batch: %d cost rows for %d samples (use MakeConstrainedBatchInto)", len(batch.CostAdv[0]), n)
	}
	if p.engine == nil {
		p.engine = newShardEngine(p.Actor.(*GaussianPolicy), p.Critic, p.Cfg.Workers)
		if constrained {
			p.engine.attachCostCritic(p.CostCritic)
		}
		p.arena = tensor.NewArena()
	}
	p.arena.Reset()
	scratch := &p.scratch
	scratch.carve(p.arena, mb, p.Actor.StateDim(), p.Actor.ActionDim())
	p.fullScratch.carve(p.arena, n, p.Actor.StateDim(), p.Actor.ActionDim())
	if cap(p.idx) < n {
		p.idx = make([]int, n)
	}
	p.idx = p.idx[:n]
	idx := p.idx
	for i := range idx {
		idx[i] = i
	}
	if p.swap == nil {
		p.swap = func(i, j int) { p.idx[i], p.idx[j] = p.idx[j], p.idx[i] }
	}
	// costParams is nil for plain PPO, which every helper below treats as
	// an empty parameter set.
	actorParams, criticParams, costParams := p.engine.actorParams, p.engine.criticParams, p.engine.costParams

	// Last-good snapshot for the divergence guard: if the update somehow
	// drives the parameters non-finite despite the per-minibatch checks, it
	// rolls back to these.
	p.actorSnap = snapshotParamsInto(p.actorSnap, actorParams)
	p.criticSnap = snapshotParamsInto(p.criticSnap, criticParams)
	p.costSnap = snapshotParamsInto(p.costSnap, costParams)

	// The multipliers are frozen for the whole update — every epoch ascends
	// the same penalized advantage Â_eff = (Â_r − Σ λ_j·Â_cj)/(1 + Σ λ_j);
	// the dual ascent happens once afterwards, on the batch-mean cost.
	var invPenalty float64 = 1
	if constrained {
		var lsum float64
		for j := 0; j < NumConstraints; j++ {
			lsum += p.lambda[j]
		}
		invPenalty = 1 / (1 + lsum)
	}

	var stats UpdateStats
	var lossSamples, clipped int

	for epoch := 0; epoch < p.Cfg.Epochs; epoch++ {
		p.rng.Shuffle(n, p.swap)
		var epochKL float64
		var epochSamples int
		for start := 0; start < n; start += mb {
			end := start + mb
			if end > n {
				end = n
			}
			size := float64(end - start)
			// Minibatch-local accumulators: folded into the update statistics
			// only if the minibatch survives the NaN guard, so one poisoned
			// sample cannot contaminate the reported loss.
			var mbPolicy, mbValue, mbCost, mbKL float64
			var mbClipped int
			ids := idx[start:end]
			scratch.gather(batch, ids)
			// One forward wave covers actor log-probs and critic values:
			// neither depends on the surrogate loop between the waves.
			V := p.engine.forward(scratch.S, scratch.A, scratch.logp, true)
			for j, k := range ids {
				adv := batch.Advantages[k]
				if constrained {
					// Penalized advantage: the multipliers trade reward
					// against each constraint's cost advantage.
					for c := 0; c < NumConstraints; c++ {
						adv -= p.lambda[c] * batch.CostAdv[c][k]
					}
					adv *= invPenalty
				}
				diff := scratch.logp[j] - batch.OldLogProb[k]
				if diff > 30 {
					diff = 30 // guard exp overflow on degenerate ratios
				}
				ratio := math.Exp(diff)
				lo, hi := 1-p.Cfg.ClipEps, 1+p.Cfg.ClipEps

				surr1 := ratio * adv
				clippedRatio := math.Min(math.Max(ratio, lo), hi)
				surr2 := clippedRatio * adv
				objective := math.Min(surr1, surr2)
				mbPolicy += -objective
				mbKL += -diff // E[log old − log new] ≈ KL

				// Gradient of −min(surr1, surr2): zero when the clipped
				// branch is active and binding, else −adv·ratio·∇logp.
				gradActive := surr1 <= surr2 || (clippedRatio == ratio)
				if ratio < lo || ratio > hi {
					mbClipped++
				}
				if gradActive {
					scratch.upstream[j] = -adv * ratio / size
				} else {
					scratch.upstream[j] = 0
				}

				// Critic regression toward the GAE return.
				verr := V[j] - batch.Returns[k]
				mbValue += verr * verr
				scratch.dV.Data[j] = 2 * verr / size

				if constrained {
					// Cost critic regression toward the cost-GAE returns,
					// fused into the same block waves.
					K := p.engine.kbuf
					for c := 0; c < NumConstraints; c++ {
						kerr := K[j*NumConstraints+c] - batch.CostRet[c][k]
						mbCost += kerr * kerr
						scratch.dK.Data[j*NumConstraints+c] = 2 * kerr / size
					}
				}
			}
			var dK *tensor.Matrix
			if constrained {
				dK = scratch.dK
			}
			p.engine.backward(scratch.upstream, scratch.dV, dK, true)
			// Entropy bonus: ascend H ⇒ descend −c_e·H.
			p.Actor.AddEntropyGrad(-p.Cfg.EntropyCoef)

			// Fused tail: measure the norms here, fold the clip into the
			// Adam step below as a per-read gradient scale. Bit-identical to
			// clip-then-step (scale 1 is an exact identity).
			actorNorm := nn.GradNorm(actorParams)
			criticNorm := nn.GradNorm(criticParams)
			costNorm := nn.GradNorm(costParams)
			// NaN guard: a poisoned sample (NaN reward, diverged advantage)
			// shows up as a non-finite loss or gradient norm. Skip the
			// optimizer step — the parameters keep their last-good values —
			// and leave the minibatch out of the statistics.
			if !finite(mbPolicy) || !finite(mbValue) || !finite(mbCost) || !finite(mbKL) ||
				!finite(actorNorm) || !finite(criticNorm) || !finite(costNorm) {
				stats.SkippedMinibatches++
				continue
			}
			p.actorOpt.StepScaled(actorParams, nn.ClipScale(actorNorm, p.Cfg.MaxGradNorm))
			p.criticOpt.StepScaled(criticParams, nn.ClipScale(criticNorm, p.Cfg.MaxGradNorm))
			if constrained {
				p.costOpt.StepScaled(costParams, nn.ClipScale(costNorm, p.Cfg.MaxGradNorm))
			}
			stats.PolicyLoss += mbPolicy
			stats.ValueLoss += mbValue
			stats.CostValueLoss += mbCost
			epochKL += mbKL
			clipped += mbClipped
			epochSamples += end - start
			lossSamples += end - start
		}
		stats.EpochsRun++
		if p.Cfg.TargetKL > 0 && epochSamples > 0 && epochKL/float64(epochSamples) > p.Cfg.TargetKL {
			break
		}
	}

	// Divergence guard: if the parameters still went non-finite (e.g. an
	// optimizer step overflowed), roll the whole update back to the weights
	// it started from so training can continue.
	if !paramsFinite(actorParams) || !paramsFinite(criticParams) || !paramsFinite(costParams) {
		restoreParams(actorParams, p.actorSnap)
		restoreParams(criticParams, p.criticSnap)
		restoreParams(costParams, p.costSnap)
		stats.Restored = true
	}

	if lossSamples > 0 {
		stats.PolicyLoss /= float64(lossSamples)
		stats.ValueLoss /= float64(lossSamples)
		stats.CostValueLoss /= float64(lossSamples)
		stats.ClipFraction = float64(clipped) / float64(lossSamples)
	}

	// Projected dual ascent on the batch-mean episodic cost: λ_j moves up
	// when the constraint is violated (Ĵ_cj > d_j), decays toward 0 when
	// satisfied, and is clamped into [0, λ_max]. Non-finite cost means
	// (poisoned batch) skip the step so λ cannot be corrupted.
	if constrained {
		stats.MeanCost = batch.CostMean
		cc := p.Cfg.Constraint
		for j := 0; j < NumConstraints; j++ {
			if !finite(batch.CostMean[j]) {
				continue
			}
			l := p.lambda[j] + cc.LagrangeLR*(batch.CostMean[j]-cc.CostLimit[j])
			if l < 0 {
				l = 0
			} else if l > cc.MultiplierMax {
				l = cc.MultiplierMax
			}
			p.lambda[j] = l
		}
		stats.Multipliers = p.lambda
	}
	stats.Entropy = p.Actor.Entropy()
	// Final-parameter KL estimate over the whole batch.
	fs := &p.fullScratch
	for k := 0; k < n; k++ {
		copy(fs.S.Row(k), batch.States[k])
		copy(fs.A.Row(k), batch.Actions[k])
	}
	p.engine.forward(fs.S, fs.A, fs.logp, false)
	var kl float64
	for k := 0; k < n; k++ {
		kl += batch.OldLogProb[k] - fs.logp[k]
	}
	stats.ApproxKL = kl / float64(n)
	return stats, nil
}

func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// snapshotParamsInto refreshes a reusable parameter snapshot in place,
// allocating only on first use (or an architecture change).
func snapshotParamsInto(dst [][]float64, params []nn.Param) [][]float64 {
	if len(dst) != len(params) {
		dst = make([][]float64, len(params))
	}
	for i, p := range params {
		if len(dst[i]) != len(p.W) {
			dst[i] = make([]float64, len(p.W))
		}
		copy(dst[i], p.W)
	}
	return dst
}

// restoreParams copies a snapshot back into the parameters in place.
func restoreParams(params []nn.Param, snap [][]float64) {
	for i, p := range params {
		copy(p.W, snap[i])
	}
}

// paramsFinite reports whether every parameter value is finite.
func paramsFinite(params []nn.Param) bool {
	for _, p := range params {
		for _, w := range p.W {
			if !finite(w) {
				return false
			}
		}
	}
	return true
}

// ppoScratch holds the reusable minibatch staging buffers of the engine
// updates. dK is the cost critic's upstream (m×NumConstraints), carved
// alongside the rest so the constrained update stays allocation-free.
type ppoScratch struct {
	S, A, dV, dK   *tensor.Matrix
	logp, upstream tensor.Vector
}

// carve (re-)backs the scratch with arena slices sized for rows samples.
// The caller resets the arena once per update and carves in a fixed order,
// so after the slabs reach steady state no carve allocates. Caps are pinned
// to the carved lengths: an arena slice's natural capacity extends to the
// end of the slab, and an unpinned cap would let gather silently grow one
// carve into its neighbor.
func (sc *ppoScratch) carve(ar *tensor.Arena, rows, stateDim, actionDim int) {
	if sc.S == nil {
		sc.S, sc.A, sc.dV, sc.dK = &tensor.Matrix{}, &tensor.Matrix{}, &tensor.Matrix{}, &tensor.Matrix{}
	}
	sc.S.Rows, sc.S.Cols, sc.S.Data = rows, stateDim, pinCap(ar.F64(rows*stateDim))
	sc.A.Rows, sc.A.Cols, sc.A.Data = rows, actionDim, pinCap(ar.F64(rows*actionDim))
	sc.dV.Rows, sc.dV.Cols, sc.dV.Data = rows, 1, pinCap(ar.F64(rows))
	sc.dK.Rows, sc.dK.Cols, sc.dK.Data = rows, NumConstraints, pinCap(ar.F64(rows*NumConstraints))
	sc.logp = pinCap(ar.F64(rows))
	sc.upstream = pinCap(ar.F64(rows))
}

func pinCap(v tensor.Vector) tensor.Vector { return v[:len(v):len(v)] }

// gather stages the indexed samples as matrix rows, shrinking (or
// re-growing, up to the carved capacity) the scratch views to the chunk size
// (the final minibatch of an epoch may be short).
func (sc *ppoScratch) gather(batch *Batch, ids []int) {
	m := len(ids)
	sc.S.Rows, sc.S.Data = m, sc.S.Data[:m*sc.S.Cols]
	sc.A.Rows, sc.A.Data = m, sc.A.Data[:m*sc.A.Cols]
	sc.dV.Rows, sc.dV.Data = m, sc.dV.Data[:m]
	sc.dK.Rows, sc.dK.Data = m, sc.dK.Data[:m*NumConstraints]
	sc.logp = sc.logp[:m]
	sc.upstream = sc.upstream[:m]
	for j, k := range ids {
		copy(sc.S.Row(j), batch.States[k])
		copy(sc.A.Row(j), batch.Actions[k])
	}
}
