package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/rl"
)

// CheckpointVersion is the format version written by SaveCheckpoint.
const CheckpointVersion = 1

// DefaultCheckpointEvery is the snapshot interval used when Config.Checkpoint
// is set but Config.CheckpointEvery is zero.
const DefaultCheckpointEvery = 25

// ErrInterrupted is returned by Run when Stop was called; the statistics
// collected so far accompany it and the trainer remains snapshot-able.
var ErrInterrupted = errors.New("core: training interrupted")

// Checkpoint is a complete, JSON-serializable snapshot of a training run:
// every network, optimizer moment, pending experience sample and the RNG
// position, so a restored run continues bit-identically to one that was
// never interrupted. Snapshots are taken at episode boundaries (wave
// boundaries in parallel mode), which keeps the environment out of the
// picture — each episode begins with a Reset.
type Checkpoint struct {
	Version  int   `json:"version"`
	Seed     int64 `json:"seed"`
	Algo     Algo  `json:"algo"`
	Arch     Arch  `json:"arch"`
	Parallel bool  `json:"parallel"`

	// Episode is the next episode index to run; Stats holds the completed
	// episodes' statistics (len(Stats) == Episode).
	Episode  int            `json:"episode"`
	Updates  int            `json:"updates"`
	LastLoss float64        `json:"last_loss"`
	Stats    []EpisodeStats `json:"stats"`

	Actor     rl.PolicyState     `json:"actor"`
	Critic    nn.MLPState        `json:"critic"`
	ActorOpt  nn.AdamState       `json:"actor_opt"`
	CriticOpt nn.AdamState       `json:"critic_opt"`
	Norm      rl.NormalizerState `json:"norm"`
	Buffer    []rl.Transition    `json:"buffer"`
	RNG       rl.RNGState        `json:"rng"`

	// Constrained carries the Lagrangian extras (multipliers, cost critic,
	// cost optimizer moments) of a constrained run; nil otherwise, so plain
	// checkpoints keep their exact historical encoding.
	Constrained *rl.ConstrainedState `json:"constrained,omitempty"`
}

// optimizers exposes the algorithm's Adam pair for checkpointing.
func (t *Trainer) optimizers() (actor, critic *nn.Adam, err error) {
	switch a := t.algo.(type) {
	case *rl.PPO:
		actor, critic = a.Optimizers()
	case *rl.A2C:
		actor, critic = a.Optimizers()
	default:
		return nil, nil, fmt.Errorf("core: cannot checkpoint algorithm %T", t.algo)
	}
	return actor, critic, nil
}

// CaptureCheckpoint snapshots the trainer's full training state.
func (t *Trainer) CaptureCheckpoint() (*Checkpoint, error) {
	actorOpt, criticOpt, err := t.optimizers()
	if err != nil {
		return nil, err
	}
	buf := make([]rl.Transition, 0, t.buffer.Len())
	for _, tr := range t.buffer.Items() {
		buf = append(buf, rl.Transition{
			State:     tr.State.Clone(),
			Action:    tr.Action.Clone(),
			Reward:    tr.Reward,
			LogProb:   tr.LogProb,
			Value:     tr.Value,
			Done:      tr.Done,
			Cost:      tr.Cost,
			CostValue: tr.CostValue,
		})
	}
	var constrained *rl.ConstrainedState
	if cp := t.constrainedPPO(); cp != nil {
		constrained = cp.CaptureConstrained()
	}
	return &Checkpoint{
		Version:     CheckpointVersion,
		Seed:        t.Cfg.Seed,
		Algo:        t.Cfg.Algo,
		Arch:        t.Cfg.Arch,
		Parallel:    t.Cfg.Workers >= 1,
		Episode:     t.nextEpisode,
		Updates:     t.updates,
		LastLoss:    t.lastLoss,
		Stats:       t.statsCopy(),
		Actor:       rl.CapturePolicy(t.actor),
		Critic:      t.critic.State(),
		ActorOpt:    actorOpt.State(t.actor.Params()),
		CriticOpt:   criticOpt.State(t.critic.Params()),
		Norm:        rl.CaptureNormalizer(t.norm),
		Buffer:      buf,
		RNG:         t.src.State(),
		Constrained: constrained,
	}, nil
}

// RestoreCheckpoint loads a snapshot into a freshly constructed trainer.
// The trainer's configuration must agree with the one that wrote the
// checkpoint on everything that shapes the training trajectory: seed,
// algorithm, architecture and collection mode. The RNG position must be on
// the trainer's seed and within maxDraws of the checkpoint's episode.
func (t *Trainer) RestoreCheckpoint(ck *Checkpoint) error {
	switch {
	case ck.Version != CheckpointVersion:
		return fmt.Errorf("core: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	case ck.Seed != t.Cfg.Seed:
		return fmt.Errorf("core: checkpoint seed %d, trainer configured with %d", ck.Seed, t.Cfg.Seed)
	case ck.Algo != t.Cfg.Algo:
		return fmt.Errorf("core: checkpoint algorithm %q, trainer configured with %q", ck.Algo, t.Cfg.Algo)
	case ck.Arch != t.Cfg.Arch:
		return fmt.Errorf("core: checkpoint architecture %q, trainer configured with %q", ck.Arch, t.Cfg.Arch)
	case ck.Parallel != (t.Cfg.Workers >= 1):
		return fmt.Errorf("core: checkpoint from parallel=%v run, trainer has Workers=%d", ck.Parallel, t.Cfg.Workers)
	case ck.Episode < 0 || ck.Episode > t.Cfg.Episodes:
		return fmt.Errorf("core: checkpoint episode %d outside [0,%d]", ck.Episode, t.Cfg.Episodes)
	case len(ck.Stats) != ck.Episode:
		return fmt.Errorf("core: checkpoint has %d episode stats for episode %d", len(ck.Stats), ck.Episode)
	case ck.RNG.Seed != ck.Seed:
		return fmt.Errorf("core: checkpoint rng seed %d, checkpoint seed %d", ck.RNG.Seed, ck.Seed)
	case ck.RNG.Draws > t.maxDraws(ck.Episode):
		return fmt.Errorf("core: checkpoint rng position %d draws, at most %d after %d episodes", ck.RNG.Draws, t.maxDraws(ck.Episode), ck.Episode)
	case len(ck.Buffer) > t.buffer.Cap():
		return fmt.Errorf("core: checkpoint buffer holds %d samples, capacity is %d", len(ck.Buffer), t.buffer.Cap())
	}
	if ck.Parallel && ck.Episode%waveSize != 0 && ck.Episode != t.Cfg.Episodes {
		return fmt.Errorf("core: parallel checkpoint episode %d not on a wave boundary (multiple of %d)", ck.Episode, waveSize)
	}
	stateDim, actionDim := t.actor.StateDim(), t.actor.ActionDim()
	for i, tr := range ck.Buffer {
		if len(tr.State) != stateDim || len(tr.Action) != actionDim {
			return fmt.Errorf("core: checkpoint buffer sample %d has a %d-dim state and a %d-dim action, actor takes %d and %d",
				i, len(tr.State), len(tr.Action), stateDim, actionDim)
		}
	}
	actorOpt, criticOpt, err := t.optimizers()
	if err != nil {
		return err
	}
	// Restore into scratch copies first, so that a rejected checkpoint
	// leaves the trainer as it was. The constrained restore checks before
	// it writes; once it passes too, nothing below can fail.
	var norm *rl.ObsNormalizer
	if t.norm != nil {
		norm = t.norm.Clone()
	}
	if err := restoreNets(ck, t.actor.Clone(), t.critic.Clone(), nn.NewAdam(1), nn.NewAdam(1), norm); err != nil {
		return err
	}
	if cp := t.constrainedPPO(); cp != nil {
		if err := cp.RestoreConstrained(ck.Constrained); err != nil {
			return fmt.Errorf("core: restore constrained state: %w", err)
		}
	} else if ck.Constrained != nil {
		return fmt.Errorf("core: checkpoint is from a constrained run, trainer is unconstrained")
	}
	if err := restoreNets(ck, t.actor, t.critic, actorOpt, criticOpt, t.norm); err != nil {
		return err
	}
	t.buffer.Clear()
	for _, tr := range ck.Buffer {
		t.buffer.Add(tr)
	}
	t.src.Restore(ck.RNG)
	t.updates = ck.Updates
	t.lastLoss = ck.LastLoss
	t.stats = append([]EpisodeStats(nil), ck.Stats...)
	t.nextEpisode = ck.Episode
	t.lastSaved = ck.Episode
	return nil
}

// restoreNets loads a checkpoint's networks, optimizer moments and
// normalizer into targets shaped like the trainer's, in place.
func restoreNets(ck *Checkpoint, actor *rl.GaussianPolicy, critic *nn.MLP, actorOpt, criticOpt *nn.Adam, norm *rl.ObsNormalizer) error {
	if err := rl.RestorePolicy(actor, ck.Actor); err != nil {
		return fmt.Errorf("core: restore actor: %w", err)
	}
	if err := critic.LoadState(ck.Critic); err != nil {
		return fmt.Errorf("core: restore critic: %w", err)
	}
	if err := actorOpt.LoadState(actor.Params(), ck.ActorOpt); err != nil {
		return fmt.Errorf("core: restore actor optimizer: %w", err)
	}
	if err := criticOpt.LoadState(critic.Params(), ck.CriticOpt); err != nil {
		return fmt.Errorf("core: restore critic optimizer: %w", err)
	}
	if err := rl.RestoreNormalizer(norm, ck.Norm); err != nil {
		return fmt.Errorf("core: restore normalizer: %w", err)
	}
	return nil
}

// maxDraws bounds the trainer's random draws after the given number of
// episodes, so that restoring a corrupt RNG position, which replays the
// stream draw by draw, cannot run unbounded. An episode draws its start
// time and fault seed, one Gaussian per action component per step when
// collection is sequential, and, per PPO epoch, one shuffle draw per
// buffered row; a buffer of BufferSize rows fills every
// BufferSize/EpisodeLen episodes, so the shuffles average EpisodeLen·Epochs
// draws an episode. A Gaussian takes a little over one source draw on
// average. The bound allows twice that count on top of the draws the
// trainer's construction took (runs at N=3 and N=50 use about half of it),
// so a checkpoint a run wrote always restores.
func (t *Trainer) maxDraws(episodes int) uint64 {
	epochs := 0
	if t.Cfg.Algo == AlgoPPO {
		epochs = t.Cfg.PPO.Epochs
	}
	perEpisode := uint64(t.Cfg.Env.EpisodeLen)*uint64(t.actor.ActionDim()+epochs) + 2
	return t.src.State().Draws + 2*uint64(episodes)*perEpisode
}

// SaveCheckpoint captures the trainer's state and writes it crash-safely
// (report.WriteFileAtomic: a synced temp file in the target directory,
// renamed into place), so a crash mid-write leaves the previous checkpoint
// intact.
func (t *Trainer) SaveCheckpoint(path string) error {
	ck, err := t.CaptureCheckpoint()
	if err != nil {
		return err
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("core: encode checkpoint: %w", err)
	}
	if err := report.WriteFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	t.lastSaved = t.nextEpisode
	return nil
}

// LoadCheckpoint reads a snapshot written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load checkpoint: %w", err)
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint %s: %w", filepath.Base(path), err)
	}
	return ck, nil
}

// ResumeTrainer builds a trainer and restores the checkpoint at path into
// it — the one-call resume used by cmd/fltrain's -resume flag.
func ResumeTrainer(sys *fl.System, cfg Config, path string) (*Trainer, error) {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	t, err := NewTrainer(sys, cfg)
	if err != nil {
		return nil, err
	}
	if err := t.RestoreCheckpoint(ck); err != nil {
		return nil, err
	}
	return t, nil
}

// autoCheckpoint writes a periodic snapshot when Config.Checkpoint is set
// and enough episodes have completed since the last save.
func (t *Trainer) autoCheckpoint() error {
	if t.Cfg.Checkpoint == "" {
		return nil
	}
	every := t.Cfg.CheckpointEvery
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	if t.nextEpisode-t.lastSaved < every && t.nextEpisode != t.Cfg.Episodes {
		return nil
	}
	return t.SaveCheckpoint(t.Cfg.Checkpoint)
}
