// Package core is the library's public face: it wires the federated-
// learning simulator, the MDP environment and the PPO machinery into the
// paper's experience-driven controller. Trainer implements Algorithm 1
// (offline DRL training on replayed traces); Agent is the trained artifact
// that schedules CPU frequencies online; Evaluate reproduces the online-
// reasoning comparisons of §V.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"

	"repro/internal/env"
	"repro/internal/fl"
	"repro/internal/guard"
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
// for online reasoning plus the critic, the environment layout it was
// trained under and the training distribution its guard checks states
// against.
type Agent struct {
	Policy rl.Policy
	Critic *nn.MLP
	EnvCfg env.Config
	// Norm carries the frozen observation statistics when the agent was
	// trained with NormalizeObs (nil otherwise).
	Norm *rl.ObsNormalizer
	// Ref is the guard's out-of-distribution reference: the training
	// states' per-feature means and deviations, from Norm when the agent
	// has one and otherwise probed from the training system's traces
	// (Trainer.Agent). It travels in the agent file, so a deployment
	// measures drift against training, not against the system it serves.
	Ref *guard.Reference
}

// Scheduler wraps a private copy of the agent's actor for the evaluation
// harness (deterministic mean action, as in §V-B2 online reasoning). No two
// schedulers share forward-pass scratch, so each may decide on its own
// goroutine.
func (a *Agent) Scheduler() (*sched.DRL, error) {
	if a.Policy == nil {
		return nil, fmt.Errorf("core: agent has no policy")
	}
	d, err := sched.NewDRL(a.Policy.ClonePolicy(), a.EnvCfg)
	if err != nil {
		return nil, err
	}
	if a.Norm != nil {
		d.Norm = a.Norm.Clone()
	}
	return d, nil
}

// WithPolicy returns a copy of the agent that acts with p; the critic,
// environment layout, normalizer and reference are a's.
func (a *Agent) WithPolicy(p rl.Policy) *Agent {
	c := *a
	c.Policy = p
	return &c
}

// agentVersion is the format version of the agent file written by Save.
const agentVersion = 1

// agentFile is the agent file: the inference subset of a Checkpoint, whose
// actor, critic and normalizer it encodes the same way, plus the
// environment layout and the guard's reference.
type agentFile struct {
	Version int                `json:"version"`
	Env     env.Config         `json:"env"`
	Actor   rl.PolicyState     `json:"actor"`
	Critic  nn.MLPState        `json:"critic"`
	Norm    rl.NormalizerState `json:"norm"`
	Ref     *guard.Reference   `json:"ref"`
}

// maxStateDim bounds the state length N·(per-device inputs) of a decoded
// shared actor, so that a malformed file cannot make the agent's first Mean
// allocate without bound. N is the one dimension the file's weights do not
// back: MLPFromState already ties a joint actor's input width to its first
// layer's weights.
const maxStateDim = 1 << 20

// encodeAgent writes the agent file. JSON round-trips every float64
// exactly, so a loaded agent decides with the trained bits.
func encodeAgent(a *Agent) ([]byte, error) {
	p, ok := a.Policy.(*rl.GaussianPolicy)
	if !ok {
		return nil, fmt.Errorf("core: cannot serialize policy type %T", a.Policy)
	}
	data, err := json.Marshal(agentFile{Version: agentVersion, Env: a.EnvCfg, Actor: rl.CapturePolicy(p),
		Critic: a.Critic.State(), Norm: rl.CaptureNormalizer(a.Norm), Ref: a.Ref})
	if err != nil {
		return nil, fmt.Errorf("core: encode agent: %w", err)
	}
	return data, nil
}

// decodeAgent reads an agent file written by encodeAgent.
func decodeAgent(data []byte) (*Agent, error) {
	var f agentFile
	if err := json.Unmarshal(data, &f); err != nil {
		var syn *json.SyntaxError
		if errors.As(err, &syn) {
			return nil, fmt.Errorf("core: decode agent: %w (agent files are JSON: retrain a gob agent from an older version with fltrain)", err)
		}
		return nil, fmt.Errorf("core: decode agent: %w", err)
	}
	return f.agent()
}

// agent rebuilds the file's agent through the checks a checkpoint restore
// makes (MLPFromState, RestorePolicy, RestoreNormalizer) and those serving
// needs: a valid environment layout whose history the actor's input width
// matches, and a reference that can score the actor's states.
func (f *agentFile) agent() (*Agent, error) {
	if f.Version != agentVersion {
		return nil, fmt.Errorf("core: decode agent: version %d, want %d", f.Version, agentVersion)
	}
	if err := f.Env.Validate(); err != nil {
		return nil, fmt.Errorf("core: decode agent: %w", err)
	}
	net, err := nn.MLPFromState(f.Actor.Net)
	if err != nil {
		return nil, fmt.Errorf("core: decode agent: policy network: %w", err)
	}
	if f.Actor.N < 0 || f.Actor.N > maxStateDim/net.InDim() {
		return nil, fmt.Errorf("core: decode agent: shared policy of %d devices with %d inputs each", f.Actor.N, net.InDim())
	}
	// RestorePolicy checks the tag against the group count and the log-σ
	// against the network's outputs.
	policy := &rl.GaussianPolicy{Net: net, Groups: max(f.Actor.N, 1),
		LogStd: tensor.NewVector(net.OutDim()), GLogStd: tensor.NewVector(net.OutDim())}
	if err := rl.RestorePolicy(policy, f.Actor); err != nil {
		return nil, fmt.Errorf("core: decode agent: %w", err)
	}
	// Both actors read H+1 slots per action: StateDim = ActionDim·(H+1).
	if in, out := net.InDim(), net.OutDim(); in%out != 0 || in/out-1 != f.Env.History {
		return nil, fmt.Errorf("core: decode agent: actor maps %d inputs to %d outputs, which history %d does not fit",
			in, out, f.Env.History)
	}
	critic, err := nn.MLPFromState(f.Critic)
	if err != nil {
		return nil, fmt.Errorf("core: decode agent: critic: %w", err)
	}
	var norm *rl.ObsNormalizer
	if f.Norm.Mean != nil {
		norm = rl.NewObsNormalizer(policy.StateDim(), 0)
	}
	if err := rl.RestoreNormalizer(norm, f.Norm); err != nil {
		return nil, fmt.Errorf("core: decode agent: %w", err)
	}
	if err := f.Ref.Validate(policy.StateDim()); err != nil {
		return nil, fmt.Errorf("core: decode agent: %w", err)
	}
	return &Agent{Policy: policy, Critic: critic, EnvCfg: f.Env, Norm: norm, Ref: f.Ref}, nil
}

// Save writes the agent file crash-safely (report.WriteFileAtomic): a
// crash mid-write leaves the previous file, if any, intact.
func (a *Agent) Save(path string) error {
	data, err := encodeAgent(a)
	if err != nil {
		return err
	}
	if err := report.WriteFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("core: save agent: %w", err)
	}
	return nil
}

// LoadAgent reads an agent file written by Save.
func LoadAgent(path string) (*Agent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load agent: %w", err)
	}
	a, err := decodeAgent(data)
	if err != nil {
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
	ref         *guard.Reference // the probed OOD reference, once Agent has run
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
// trainer; Save before further training if isolation matters). Its
// reference is the normalizer's statistics when the trainer has one, and
// otherwise probed from the training system on the first call and kept.
func (t *Trainer) Agent() *Agent {
	a := &Agent{Policy: t.actor, Critic: t.critic, EnvCfg: t.Cfg.Env, Ref: t.ref}
	var err error
	switch {
	case t.norm != nil:
		a.Norm = t.norm.Clone()
		a.Ref, err = guard.RefFromNormalizer(a.Norm)
	case t.ref == nil:
		t.ref, err = guard.ProbeReference(t.Sys, t.Cfg.Env, 256)
		a.Ref = t.ref
	}
	if err != nil {
		// Unreachable: both fail only on the system or layout that
		// NewTrainer validated.
		panic(err)
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
