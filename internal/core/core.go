// Package core is the library's public face: it wires the federated-
// learning simulator, the MDP environment and the PPO machinery into the
// paper's experience-driven controller. Trainer implements Algorithm 1
// (offline DRL training on replayed traces); Agent is the trained artifact
// that schedules CPU frequencies online; Evaluate reproduces the online-
// reasoning comparisons of §V.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"

	"repro/internal/env"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Config bundles every knob of an offline training run.
type Config struct {
	// Env parameterizes the MDP (state history H, slot width h, reward
	// scaling, episode length).
	Env env.Config
	// PPO holds the optimizer hyperparameters, including M (epochs per
	// buffer drain). Used when Algo is AlgoPPO (the paper's choice).
	PPO rl.PPOConfig
	// A2C holds the alternative optimizer's hyperparameters, used when
	// Algo is AlgoA2C (the §IV-C comparison point).
	A2C rl.A2CConfig
	// Algo selects the policy-optimization algorithm.
	Algo Algo
	// Hidden lists the hidden-layer widths of both actor and critic.
	Hidden []int
	// Arch selects the actor architecture: ArchJoint (the paper's single
	// network over the whole state) or ArchShared (one per-device network
	// with shared weights, which scales to large fleets like Fig. 8's
	// 50 devices).
	Arch Arch
	// InitStd is the policy's initial exploration standard deviation.
	InitStd float64
	// NormalizeObs standardizes states with running statistics that are
	// frozen into the saved agent. Off by default (the raw states are
	// already scaled by Env.BWScale).
	NormalizeObs bool
	// ObsClip bounds normalized features (used when NormalizeObs is set;
	// 0 keeps the 10.0 default).
	ObsClip float64
	// BufferSize is |D|, the experience replay buffer capacity of
	// Algorithm 1.
	BufferSize int
	// Episodes is the number of training episodes.
	Episodes int
	// Seed makes the whole run deterministic.
	Seed int64
	// Workers selects the rollout collection mode. 0 (the default) runs
	// the exact sequential loop of Algorithm 1, bit-identical to earlier
	// versions. w ≥ 1 collects episodes in fixed-size waves across w
	// goroutines with per-episode seeded RNGs and wave-snapshot sampling
	// parameters; the result is deterministic and independent of w (so
	// Workers=1 and Workers=8 produce identical runs), but not identical
	// to the sequential mode because sampling lags the optimizer by up to
	// one wave. Negative values fail Validate; values above Episodes are
	// clamped.
	Workers int
	// TrainWorkers caps the goroutines of the data-parallel gradient engine
	// inside each PPO/A2C update (distinct from Workers, which parallelizes
	// rollout collection). The engine is bit-identical at any setting — fixed
	// 16-row gradient blocks merged by a worker-count-independent reduction
	// tree — so this only changes update wall-clock time. 0 or 1 runs the
	// update single-threaded. Overrides PPO.Workers/A2C.Workers when set.
	TrainWorkers int
	// Checkpoint, when non-empty, makes Run write crash-safe training
	// snapshots to this path (atomically, via a temp file and rename) so an
	// interrupted run can resume bit-identically.
	Checkpoint string
	// CheckpointEvery is the number of episodes between periodic snapshots
	// (0 keeps the 25 default; only meaningful with Checkpoint set). In
	// parallel mode snapshots land on wave boundaries, the only points a
	// parallel run can resume from.
	CheckpointEvery int
}

// Algo names a policy-optimization algorithm.
type Algo string

// Supported algorithms.
const (
	// AlgoPPO is proximal policy optimization with clipping — the paper's
	// choice (§IV-C).
	AlgoPPO Algo = "ppo"
	// AlgoA2C is vanilla advantage actor-critic, the alternative the paper
	// weighs PPO against.
	AlgoA2C Algo = "a2c"
)

// Arch names an actor architecture.
type Arch string

// Supported actor architectures.
const (
	// ArchJoint is one MLP from the full state to all device actions.
	ArchJoint Arch = "joint"
	// ArchShared applies one per-device MLP (shared weights) to each
	// device's slice of the state.
	ArchShared Arch = "shared"
)

// DefaultConfig returns a configuration that converges on the paper's
// 3-device testbed scenario within the ~200 episodes of Fig. 6.
func DefaultConfig() Config {
	return Config{
		Env:        env.DefaultConfig(),
		PPO:        rl.DefaultPPOConfig(),
		A2C:        rl.DefaultA2CConfig(),
		Algo:       AlgoPPO,
		Hidden:     []int{64, 64},
		Arch:       ArchJoint,
		InitStd:    0.4,
		BufferSize: 256,
		Episodes:   300,
		Seed:       1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Env.Validate(); err != nil {
		return err
	}
	switch c.Algo {
	case AlgoPPO:
		if err := c.PPO.Validate(); err != nil {
			return err
		}
	case AlgoA2C:
		if err := c.A2C.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown algorithm %q", c.Algo)
	}
	if len(c.Hidden) == 0 {
		return fmt.Errorf("core: no hidden layers configured")
	}
	if c.Arch != ArchJoint && c.Arch != ArchShared {
		return fmt.Errorf("core: unknown architecture %q", c.Arch)
	}
	for _, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("core: hidden width %d must be positive", h)
		}
	}
	if c.InitStd <= 0 {
		return fmt.Errorf("core: initial std %v must be positive", c.InitStd)
	}
	if c.BufferSize <= 0 {
		return fmt.Errorf("core: buffer size %d must be positive", c.BufferSize)
	}
	if c.Episodes <= 0 {
		return fmt.Errorf("core: episodes %d must be positive", c.Episodes)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: workers %d must not be negative", c.Workers)
	}
	if c.TrainWorkers < 0 {
		return fmt.Errorf("core: train workers %d must not be negative", c.TrainWorkers)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("core: checkpoint interval %d must not be negative", c.CheckpointEvery)
	}
	return nil
}

// Agent is a trained experience-driven controller: the actor network used
// for online reasoning plus the critic and the environment layout it was
// trained under.
type Agent struct {
	Policy rl.Policy
	Critic *nn.MLP
	EnvCfg env.Config
	// Norm carries the frozen observation statistics when the agent was
	// trained with NormalizeObs (nil otherwise).
	Norm *rl.ObsNormalizer
}

// Scheduler wraps the agent for the evaluation harness (deterministic mean
// action, as in §V-B2 online reasoning).
func (a *Agent) Scheduler() (*sched.DRL, error) {
	d, err := sched.NewDRL(a.Policy, a.EnvCfg)
	if err != nil {
		return nil, err
	}
	if a.Norm != nil {
		d.Norm = a.Norm.Clone()
	}
	return d, nil
}

// maxStateDim bounds the state length N·(per-device inputs) of a decoded
// shared actor, so that a malformed file cannot make the agent's first Mean
// allocate without bound. N is the one dimension the file's weights do not
// back: nn's decoder already ties a joint actor's input width to its first
// layer's weights.
const maxStateDim = 1 << 20

// agentWire is the gob wire format of an Agent.
type agentWire struct {
	Arch      string
	N         int
	PolicyNet []byte
	LogStd    []float64
	Critic    []byte
	EnvCfg    env.Config
	HasNorm   bool
	NormMean  []float64
	NormM2    []float64
	NormCount float64
	NormClip  float64
}

// MarshalBinary encodes the agent.
func (a *Agent) MarshalBinary() ([]byte, error) {
	w := agentWire{EnvCfg: a.EnvCfg}
	if a.Norm != nil {
		w.HasNorm = true
		w.NormMean = append([]float64(nil), a.Norm.Mean...)
		w.NormM2 = append([]float64(nil), a.Norm.M2...)
		w.NormCount = a.Norm.Count
		w.NormClip = a.Norm.Clip
	}
	p, ok := a.Policy.(*rl.GaussianPolicy)
	if !ok {
		return nil, fmt.Errorf("core: cannot serialize policy type %T", a.Policy)
	}
	pn, err := p.Net.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Arch, w.PolicyNet, w.LogStd = string(ArchJoint), pn, append([]float64(nil), p.LogStd...)
	if p.Groups > 1 {
		w.Arch, w.N = string(ArchShared), p.Groups
	}
	cr, err := a.Critic.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Critic = cr
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("core: encode agent: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes an agent written by MarshalBinary.
func (a *Agent) UnmarshalBinary(data []byte) error {
	var w agentWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("core: decode agent: %w", err)
	}
	var net nn.MLP
	if err := net.UnmarshalBinary(w.PolicyNet); err != nil {
		return fmt.Errorf("core: decode agent: policy network: %w", err)
	}
	var critic nn.MLP
	if err := critic.UnmarshalBinary(w.Critic); err != nil {
		return fmt.Errorf("core: decode agent: critic: %w", err)
	}
	groups := 1
	switch Arch(w.Arch) {
	case ArchJoint:
	case ArchShared:
		if w.N <= 0 || w.N > maxStateDim/net.InDim() {
			return fmt.Errorf("core: decode agent: shared policy of %d devices with %d inputs each", w.N, net.InDim())
		}
		groups = w.N
	default:
		return fmt.Errorf("core: decode agent: unknown architecture %q", w.Arch)
	}
	if len(w.LogStd) != net.OutDim() {
		return fmt.Errorf("core: decode agent: logstd length %d vs %d network outputs", len(w.LogStd), net.OutDim())
	}
	if j := tensor.Vector(w.LogStd).FirstNonFinite(); j >= 0 {
		return fmt.Errorf("core: decode agent: logstd %d is %v, want finite", j, w.LogStd[j])
	}
	policy := &rl.GaussianPolicy{Net: &net, Groups: groups, LogStd: w.LogStd, GLogStd: make([]float64, len(w.LogStd))}
	var norm *rl.ObsNormalizer
	if w.HasNorm {
		st := rl.NormalizerState{Mean: w.NormMean, M2: w.NormM2, Count: w.NormCount, Clip: w.NormClip}
		if st.Dim() != policy.StateDim() {
			return fmt.Errorf("core: decode agent: normalizer dim %d vs state dim %d", st.Dim(), policy.StateDim())
		}
		if err := st.Validate(); err != nil {
			return fmt.Errorf("core: decode agent: %w", err)
		}
		norm = &rl.ObsNormalizer{Mean: st.Mean, M2: st.M2, Count: st.Count, Clip: st.Clip}
	}
	a.Policy, a.Critic, a.EnvCfg, a.Norm = policy, &critic, w.EnvCfg, norm
	return nil
}

// Save writes the agent to a file crash-safely (report.WriteFileAtomic):
// a crash mid-write leaves the previous file, if any, intact.
func (a *Agent) Save(path string) error {
	data, err := a.MarshalBinary()
	if err != nil {
		return err
	}
	if err := report.WriteFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("core: save agent: %w", err)
	}
	return nil
}

// LoadAgent reads an agent from a file.
func LoadAgent(path string) (*Agent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load agent: %w", err)
	}
	a := &Agent{}
	if err := a.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("core: load agent %s: %w", path, err)
	}
	return a, nil
}

// EpisodeStats summarizes one training episode for the Fig. 6 curves.
type EpisodeStats struct {
	// Episode is the 0-based episode index.
	Episode int
	// AvgCost is the mean per-iteration system cost within the episode
	// (Fig. 6(b)).
	AvgCost float64
	// AvgReward is the mean scaled reward.
	AvgReward float64
	// Loss is the combined PPO training loss of the most recent update
	// (Fig. 6(a)); it carries the last value forward between updates.
	Loss float64
	// Updates counts PPO updates that completed by the end of the episode.
	Updates int
}

// Trainer runs the offline DRL training of Algorithm 1 against a simulated
// federated-learning system built on replayed bandwidth traces.
type Trainer struct {
	Cfg Config
	Sys *fl.System

	environment *env.Env
	actor       *rl.GaussianPolicy
	critic      *nn.MLP
	algo        rl.Trainable
	actorOld    *rl.GaussianPolicy
	norm        *rl.ObsNormalizer
	buffer      *rl.Buffer
	batch       *rl.Batch // reused across buffer drains (see MakeBatchInto)
	rng         *rand.Rand
	src         *rl.CountingSource
	lastLoss    float64
	updates     int

	// Crash-safety state: the episodes completed so far (and their stats,
	// so a resumed Run returns the full series), the episode count at the
	// last snapshot, and the cooperative stop flag set by Stop().
	stats       []EpisodeStats
	nextEpisode int
	lastSaved   int
	stop        atomic.Bool
}

// NewTrainer initializes networks and environment (Algorithm 1 lines 1–4).
func NewTrainer(sys *fl.System, cfg Config) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	// A counting source produces the exact stream of rand.NewSource(Seed)
	// while letting checkpoints pin the generator's position.
	src := rl.NewCountingSource(cfg.Seed)
	rng := rand.New(src)
	environment, err := env.New(sys, cfg.Env, rng)
	if err != nil {
		return nil, err
	}
	var actor *rl.GaussianPolicy
	if cfg.Arch == ArchShared {
		actor = rl.NewSharedGaussianPolicy(environment.ActionDim(), cfg.Env.History+1, cfg.Hidden, cfg.InitStd, rng)
	} else {
		actor = rl.NewGaussianPolicy(environment.StateDim(), environment.ActionDim(), cfg.Hidden, cfg.InitStd, rng)
	}
	criticSizes := append(append([]int{environment.StateDim()}, cfg.Hidden...), 1)
	critic := nn.NewMLP(criticSizes, nn.Tanh, nn.Identity, rng)
	// The cost critic is constructed right after the reward critic so the
	// constrained RNG stream is a deterministic function of the config alone;
	// unconstrained runs skip the draw and keep their exact historical stream.
	var costCritic *nn.MLP
	if cfg.Algo == AlgoPPO && cfg.PPO.Constraint.Enabled {
		costSizes := append(append([]int{environment.StateDim()}, cfg.Hidden...), rl.NumConstraints)
		costCritic = nn.NewMLP(costSizes, nn.Tanh, nn.Identity, rng)
	}
	if cfg.TrainWorkers > 0 {
		cfg.PPO.Workers = cfg.TrainWorkers
		cfg.A2C.Workers = cfg.TrainWorkers
	}
	var algo rl.Trainable
	switch cfg.Algo {
	case AlgoA2C:
		if cfg.PPO.Constraint.Enabled {
			return nil, fmt.Errorf("core: constrained training requires the PPO algorithm")
		}
		a2c, err := rl.NewA2C(cfg.A2C, actor, critic)
		if err != nil {
			return nil, err
		}
		algo = a2c
	default:
		var ppo *rl.PPO
		var err error
		if cfg.PPO.Constraint.Enabled {
			ppo, err = rl.NewConstrainedPPO(cfg.PPO, actor, critic, costCritic, rng)
		} else {
			ppo, err = rl.NewPPO(cfg.PPO, actor, critic, rng)
		}
		if err != nil {
			return nil, err
		}
		algo = ppo
	}
	var norm *rl.ObsNormalizer
	if cfg.NormalizeObs {
		clip := cfg.ObsClip
		if clip == 0 {
			clip = 10
		}
		norm = rl.NewObsNormalizer(environment.StateDim(), clip)
	}
	return &Trainer{
		Cfg:         cfg,
		Sys:         sys,
		environment: environment,
		actor:       actor,
		critic:      critic,
		algo:        algo,
		actorOld:    actor.Clone(), // θ_old ← θ (line 4)
		norm:        norm,
		buffer:      rl.NewBuffer(cfg.BufferSize),
		batch:       &rl.Batch{},
		rng:         rng,
		src:         src,
	}, nil
}

// Env exposes the training environment.
func (t *Trainer) Env() *env.Env { return t.environment }

// constrainedPPO returns the algorithm as a Lagrangian PPO, or nil when the
// trainer runs unconstrained (plain PPO or A2C).
func (t *Trainer) constrainedPPO() *rl.PPO {
	if p, ok := t.algo.(*rl.PPO); ok && p.Constrained() {
		return p
	}
	return nil
}

// Agent returns the current trained agent (sharing parameters with the
// trainer; Save before further training if isolation matters).
func (t *Trainer) Agent() *Agent {
	a := &Agent{Policy: t.actor, Critic: t.critic, EnvCfg: t.Cfg.Env}
	if t.norm != nil {
		a.Norm = t.norm.Clone()
	}
	return a
}

// RunEpisode executes one training episode (Algorithm 1 lines 6–24) and
// returns its statistics.
func (t *Trainer) RunEpisode(episode int) (EpisodeStats, error) {
	state, err := t.environment.Reset() // random start time + initial state
	if err != nil {
		return EpisodeStats{}, err
	}
	if t.norm != nil {
		t.norm.Update(state)
		state = t.norm.Normalize(state)
	}
	var costSum, rewardSum float64
	steps := 0
	cp := t.constrainedPPO()
	for {
		// Derive a_k from the sampling policy θ_old (line 12).
		action, logp := t.actorOld.Sample(state, t.rng)
		value := t.algo.Value(state)
		var costValue rl.CostVec
		if cp != nil {
			costValue = cp.CostValues(state)
		}
		// Capture s_k before StepInto overwrites the environment's state
		// scratch (the buffer retains the transition anyway, so this clone
		// is the unavoidable one).
		stored := state.Clone()
		res, err := t.environment.StepInto(action)
		if err != nil {
			return EpisodeStats{}, err
		}
		// Store (s_k, a_k, r_k, s_{k+1}) (line 16).
		t.buffer.Add(rl.Transition{
			State:     stored,
			Action:    action.Clone(),
			Reward:    res.Reward,
			LogProb:   logp,
			Value:     value,
			Done:      res.Done,
			Cost:      rl.CostVec(res.Costs),
			CostValue: costValue,
		})
		costSum += res.Iter.Cost
		rewardSum += res.Reward
		steps++
		state = res.State
		if t.norm != nil {
			t.norm.Update(state)
			state = t.norm.Normalize(state)
		}

		// Buffer full: update, sync θ_old, clear D (lines 17–23).
		if t.buffer.Full() {
			if err := t.update(state, res.Done); err != nil {
				return EpisodeStats{}, err
			}
		}
		if res.Done {
			break
		}
	}
	return EpisodeStats{
		Episode:   episode,
		AvgCost:   costSum / float64(steps),
		AvgReward: rewardSum / float64(steps),
		Loss:      t.lastLoss,
		Updates:   t.updates,
	}, nil
}

// update runs Algorithm 1's buffer-full step (lines 17–23) on the full
// buffer D: bootstrap the value of next (and, under constrained PPO, its
// cost values) unless the episode ended, turn D into a batch with γ and λ
// of the configured algorithm, optimize for M epochs, sync θ_old and clear
// D. next is the state after D's last transition.
func (t *Trainer) update(next tensor.Vector, done bool) error {
	cp := t.constrainedPPO()
	lastValue := 0.0
	var lastCost rl.CostVec
	if !done {
		lastValue = t.algo.Value(next)
		if cp != nil {
			lastCost = cp.CostValues(next)
		}
	}
	gamma, lambda := t.Cfg.PPO.Gamma, t.Cfg.PPO.Lambda
	if t.Cfg.Algo == AlgoA2C {
		gamma, lambda = t.Cfg.A2C.Gamma, t.Cfg.A2C.Lambda
	}
	var batch *rl.Batch
	if cp != nil {
		batch = rl.MakeConstrainedBatchInto(t.batch, t.buffer, lastValue, lastCost, gamma, lambda)
	} else {
		batch = rl.MakeBatchInto(t.batch, t.buffer, lastValue, gamma, lambda)
	}
	st, err := t.algo.Update(batch)
	if err != nil {
		return err
	}
	t.lastLoss = st.Loss(t.Cfg.PPO)
	t.updates++
	t.actorOld.CopyFrom(t.actor)
	t.buffer.Clear()
	return nil
}

// Stop asks a running Run to stop at the next episode (sequential mode) or
// wave (parallel mode) boundary. Run then returns the statistics collected
// so far with ErrInterrupted, leaving the trainer in a state SaveCheckpoint
// can snapshot. Safe to call from another goroutine (e.g. a signal handler).
func (t *Trainer) Stop() { t.stop.Store(true) }

// Run executes cfg.Episodes training episodes and returns the per-episode
// statistics (the data behind Fig. 6). The optional progress callback is
// invoked after every episode. With Cfg.Workers ≥ 1 episodes are collected
// by a parallel rollout pool (see Config.Workers for the determinism
// contract); otherwise the sequential loop below runs unchanged.
//
// On a trainer restored from a checkpoint, Run continues from the saved
// episode and returns the full series including the restored prefix (the
// progress callback only fires for newly run episodes). With Cfg.Checkpoint
// set, snapshots are written every Cfg.CheckpointEvery episodes.
func (t *Trainer) Run(progress func(EpisodeStats)) ([]EpisodeStats, error) {
	if t.Cfg.Workers >= 1 {
		return t.runParallel(progress)
	}
	for ep := t.nextEpisode; ep < t.Cfg.Episodes; ep++ {
		if t.stop.Load() {
			return t.statsCopy(), ErrInterrupted
		}
		st, err := t.RunEpisode(ep)
		if err != nil {
			return t.statsCopy(), fmt.Errorf("core: episode %d: %w", ep, err)
		}
		t.stats = append(t.stats, st)
		t.nextEpisode = ep + 1
		if progress != nil {
			progress(st)
		}
		if err := t.autoCheckpoint(); err != nil {
			return t.statsCopy(), err
		}
	}
	return t.statsCopy(), nil
}

func (t *Trainer) statsCopy() []EpisodeStats {
	return append([]EpisodeStats(nil), t.stats...)
}
