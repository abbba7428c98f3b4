package core

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/rl"
	"repro/internal/tensor"
)

// trainInterrupted runs a trainer, stopping after stopAfter episodes, saves
// a checkpoint, and returns the checkpoint path.
func trainInterrupted(t *testing.T, cfg Config, stopAfter int) string {
	t.Helper()
	sys := testbedSystem(2, 7)
	tr, err := NewTrainer(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	_, err = tr.Run(func(EpisodeStats) {
		seen++
		if seen == stopAfter {
			tr.Stop()
		}
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("expected ErrInterrupted, got %v", err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := tr.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	// The crash-safe write leaves no staging file beside the checkpoint.
	if names := dirNames(t, filepath.Dir(path)); len(names) != 1 || names[0] != "ck.json" {
		t.Fatalf("directory after SaveCheckpoint holds %v, want only ck.json", names)
	}
	return path
}

func referenceRun(t *testing.T, cfg Config) ([]EpisodeStats, *Trainer) {
	t.Helper()
	tr, err := NewTrainer(testbedSystem(2, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return stats, tr
}

// Interrupt → checkpoint → resume must reproduce an uninterrupted run
// bit-for-bit: same episode statistics, same final parameters.
func TestSequentialResumeBitIdentical(t *testing.T) {
	cfg := fastConfig()
	cfg.Episodes = 8
	refStats, refTr := referenceRun(t, cfg)

	path := trainInterrupted(t, cfg, 4)
	resumed, err := ResumeTrainer(testbedSystem(2, 7), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	var fresh []int
	stats, err := resumed.Run(func(st EpisodeStats) { fresh = append(fresh, st.Episode) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, refStats) {
		t.Fatalf("resumed stats diverge:\n%+v\n%+v", stats, refStats)
	}
	if !reflect.DeepEqual(fresh, []int{4, 5, 6, 7}) {
		t.Fatalf("progress fired for %v, want the resumed episodes only", fresh)
	}
	compareParamsBits(t, 0, "actor", resumed.actor.Params(), refTr.actor.Params())
	compareParamsBits(t, 0, "critic", resumed.critic.Params(), refTr.critic.Params())
}

// TestCheckpointWithActorOldResumes: checkpoints written before the trainer
// stopped keeping θ_old hold an "actor_old" copy of the actor. Decoding
// ignores the field, so such a checkpoint still resumes bit-identically.
func TestCheckpointWithActorOldResumes(t *testing.T) {
	cfg := fastConfig()
	cfg.Episodes = 8
	refStats, refTr := referenceRun(t, cfg)

	path := trainInterrupted(t, cfg, 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["actor_old"]; ok {
		t.Fatal("checkpoint still writes actor_old")
	}
	// The older format synced θ_old to the actor after every update, so
	// at an episode boundary the two were equal.
	fields["actor_old"] = fields["actor"]
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeTrainer(testbedSystem(2, 7), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := resumed.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, refStats) {
		t.Fatalf("resumed stats diverge:\n%+v\n%+v", stats, refStats)
	}
	compareParamsBits(t, 0, "actor", resumed.actor.Params(), refTr.actor.Params())
	compareParamsBits(t, 0, "critic", resumed.critic.Params(), refTr.critic.Params())
}

// The same contract must hold under fault injection: the per-episode fault
// schedules are drawn from the trainer RNG stream, so a resumed run must see
// the same crash/rejoin pattern the uninterrupted run does.
func TestFaultyResumeBitIdentical(t *testing.T) {
	cfg := fastConfig()
	cfg.Episodes = 6
	cfg.Env.RoundDeadline = 600
	cfg.Env.Faults = &fault.Config{CrashProb: 0.2, RejoinProb: 0.5, BlackoutProb: 0.2, StragglerProb: 0.1}
	refStats, refTr := referenceRun(t, cfg)

	path := trainInterrupted(t, cfg, 3)
	resumed, err := ResumeTrainer(testbedSystem(2, 7), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := resumed.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, refStats) {
		t.Fatalf("faulty resumed stats diverge:\n%+v\n%+v", stats, refStats)
	}
	compareParamsBits(t, 0, "actor", resumed.actor.Params(), refTr.actor.Params())
}

// Parallel runs resume at wave boundaries and must match both the
// uninterrupted parallel run and (by the pool's contract) any worker count.
func TestParallelResumeBitIdentical(t *testing.T) {
	cfg := fastConfig()
	cfg.Episodes = 12 // waves of 8 + 4
	cfg.Workers = 3
	refStats, refTr := referenceRun(t, cfg)

	// Stop after the first wave: the stop flag is honored at the next wave
	// boundary, so the checkpoint lands at episode 8.
	path := trainInterrupted(t, cfg, 8)
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Episode != 8 || !ck.Parallel {
		t.Fatalf("parallel checkpoint at episode %d (parallel=%v), want wave boundary 8", ck.Episode, ck.Parallel)
	}
	// Resume with a different worker count — the pool is worker-invariant.
	cfg.Workers = 5
	resumed, err := ResumeTrainer(testbedSystem(2, 7), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := resumed.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, refStats) {
		t.Fatalf("parallel resumed stats diverge:\n%+v\n%+v", stats, refStats)
	}
	compareParamsBits(t, 5, "actor", resumed.actor.Params(), refTr.actor.Params())
	compareParamsBits(t, 5, "critic", resumed.critic.Params(), refTr.critic.Params())
}

// The gradient engine's worker invariance must hold end to end: a full run,
// an interrupted-and-resumed run, and any TrainWorkers setting all produce
// bit-identical episodes and parameters.
func TestTrainWorkersResumeBitIdentical(t *testing.T) {
	cfg := fastConfig()
	cfg.Episodes = 8
	refStats, refTr := referenceRun(t, cfg) // TrainWorkers 0: serial engine

	cfg.TrainWorkers = 4
	parStats, parTr := referenceRun(t, cfg)
	if !reflect.DeepEqual(parStats, refStats) {
		t.Fatalf("TrainWorkers=4 stats diverge from serial:\n%+v\n%+v", parStats, refStats)
	}
	compareParamsBits(t, 0, "actor", parTr.actor.Params(), refTr.actor.Params())
	compareParamsBits(t, 0, "critic", parTr.critic.Params(), refTr.critic.Params())

	// Interrupt under TrainWorkers=4, resume under TrainWorkers=2: the
	// engine holds no checkpointed state, so any combination must land on
	// the serial trajectory.
	path := trainInterrupted(t, cfg, 4)
	cfg.TrainWorkers = 2
	resumed, err := ResumeTrainer(testbedSystem(2, 7), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := resumed.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, refStats) {
		t.Fatalf("resumed TrainWorkers stats diverge:\n%+v\n%+v", stats, refStats)
	}
	compareParamsBits(t, 0, "actor", resumed.actor.Params(), refTr.actor.Params())
	compareParamsBits(t, 0, "critic", resumed.critic.Params(), refTr.critic.Params())
}

func TestRestoreCheckpointValidation(t *testing.T) {
	cfg := fastConfig()
	cfg.Episodes = 8
	path := trainInterrupted(t, cfg, 2)
	good, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	newTrainer := func(mut func(*Config)) *Trainer {
		c := cfg
		if mut != nil {
			mut(&c)
		}
		tr, err := NewTrainer(testbedSystem(2, 7), c)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cases := map[string]func(ck *Checkpoint, tr **Trainer){
		"version":  func(ck *Checkpoint, tr **Trainer) { ck.Version = 99 },
		"seed":     func(ck *Checkpoint, tr **Trainer) { ck.Seed = 12345 },
		"algo":     func(ck *Checkpoint, tr **Trainer) { ck.Algo = AlgoA2C },
		"arch":     func(ck *Checkpoint, tr **Trainer) { ck.Arch = ArchShared },
		"parallel": func(ck *Checkpoint, tr **Trainer) { *tr = newTrainer(func(c *Config) { c.Workers = 2 }) },
		"episode":  func(ck *Checkpoint, tr **Trainer) { ck.Episode = 99 },
		"stats":    func(ck *Checkpoint, tr **Trainer) { ck.Stats = nil },
		// A stream on another seed, and a position no 2-episode run
		// reaches (it would take seconds to replay).
		"rng seed":  func(ck *Checkpoint, tr **Trainer) { ck.RNG.Seed = 999 },
		"rng draws": func(ck *Checkpoint, tr **Trainer) { ck.RNG.Draws = 1 << 28 },
		"buffer": func(ck *Checkpoint, tr **Trainer) {
			*tr = newTrainer(func(c *Config) { c.BufferSize = 1 })
		},
		// A buffered sample whose state or action length is not the
		// actor's; the copy keeps good's buffer intact.
		"buffer state": func(ck *Checkpoint, tr **Trainer) {
			ck.Buffer = append([]rl.Transition(nil), ck.Buffer...)
			ck.Buffer[len(ck.Buffer)-1].State = tensor.Vector{1}
		},
		"buffer action": func(ck *Checkpoint, tr **Trainer) {
			ck.Buffer = append([]rl.Transition(nil), ck.Buffer...)
			ck.Buffer[0].Action = make(tensor.Vector, 5)
		},
	}
	if len(good.Buffer) == 0 {
		t.Fatal("the checkpoint's buffer is empty: the buffer cases would index nothing")
	}
	for name, mut := range cases {
		ck := *good
		tr := newTrainer(nil)
		mut(&ck, &tr)
		if err := tr.RestoreCheckpoint(&ck); err == nil {
			t.Errorf("%s: corrupted checkpoint accepted", name)
		}
	}
	// The pristine checkpoint must restore fine.
	if err := newTrainer(nil).RestoreCheckpoint(good); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
}

// TestRestoreCheckpointRejectsBadNormalizer: a normalizer state that cannot
// standardize a state is refused at restore. A count of −5 used to restore
// and fail an episode later on a NaN action.
func TestRestoreCheckpointRejectsBadNormalizer(t *testing.T) {
	cfg := fastConfig()
	cfg.Episodes = 8
	cfg.NormalizeObs = true
	good, err := LoadCheckpoint(trainInterrupted(t, cfg, 2))
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*rl.NormalizerState){
		"count": func(st *rl.NormalizerState) { st.Count = -5 },
		"mean":  func(st *rl.NormalizerState) { st.Mean[0] = math.NaN() },
		"m2":    func(st *rl.NormalizerState) { st.M2[1] = -1 },
		"clip":  func(st *rl.NormalizerState) { st.Clip = math.Inf(1) },
	} {
		ck := *good
		ck.Norm.Mean = append([]float64(nil), good.Norm.Mean...)
		ck.Norm.M2 = append([]float64(nil), good.Norm.M2...)
		mut(&ck.Norm)
		tr, err := NewTrainer(testbedSystem(2, 7), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.RestoreCheckpoint(&ck); err == nil {
			t.Errorf("%s: corrupted normalizer accepted", name)
		}
	}
	tr, err := NewTrainer(testbedSystem(2, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.RestoreCheckpoint(good); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
}

// TestRejectedRestoreLeavesTrainer: a checkpoint that fails a late check
// leaves the trainer exactly as it was. Each checkpoint comes from a run
// whose first update fired, so its networks differ from a fresh trainer's.
func TestRejectedRestoreLeavesTrainer(t *testing.T) {
	norm := fastConfig()
	norm.Episodes = 8
	norm.NormalizeObs = true
	constrained := constrainedConfig()
	cases := []struct {
		name      string
		run, into Config
		mut       func(*Checkpoint)
	}{
		// A normalizer state restored into a trainer without one.
		{"normalizer", norm, fastConfig(), func(*Checkpoint) {}},
		// A cost optimizer row one moment short.
		{"constrained", constrained, constrained, func(ck *Checkpoint) {
			m := ck.Constrained.CostOpt.M
			m[0] = m[0][1:]
		}},
	}
	for _, c := range cases {
		ck, err := LoadCheckpoint(trainInterrupted(t, c.run, 5))
		if err != nil {
			t.Fatal(err)
		}
		if ck.Updates < 1 {
			t.Fatalf("%s: no update fired in 5 episodes", c.name)
		}
		c.mut(ck)
		c.into.Episodes = c.run.Episodes
		tr, err := NewTrainer(testbedSystem(2, 7), c.into)
		if err != nil {
			t.Fatal(err)
		}
		before, err := tr.CaptureCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		w := tr.actor.Net.Layers[0].W.Data[0]
		if w == ck.Actor.Net.W[0][0] {
			t.Fatalf("%s: the checkpoint's first actor weight is the fresh trainer's", c.name)
		}
		if err := tr.RestoreCheckpoint(ck); err == nil {
			t.Fatalf("%s: checkpoint accepted", c.name)
		}
		if got := tr.actor.Net.Layers[0].W.Data[0]; got != w {
			t.Fatalf("%s: rejected restore wrote the actor: first weight %v, was %v", c.name, got, w)
		}
		after, err := tr.CaptureCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: rejected restore changed the trainer", c.name)
		}
	}
}

// TestRestoreCheckpointRejectsNonFinite: a checkpoint holding a non-finite
// weight, bias or log-σ, a non-finite first moment, or a negative second
// moment is rejected, and the rejection leaves the trainer unchanged. A
// negative second moment would make the next Adam step's square root NaN,
// and the divergence guard would then roll back every later update.
func TestRestoreCheckpointRejectsNonFinite(t *testing.T) {
	cfg := fastConfig()
	cfg.Episodes = 8
	path := trainInterrupted(t, cfg, 5)
	for name, mut := range map[string]func(*Checkpoint){
		"critic weight NaN": func(ck *Checkpoint) { ck.Critic.W[1][3] = math.NaN() },
		"actor second moments -1": func(ck *Checkpoint) {
			for _, row := range ck.ActorOpt.V {
				for j := range row {
					row[j] = -1
				}
			}
		},
		"critic second moment +Inf": func(ck *Checkpoint) { ck.CriticOpt.V[0][0] = math.Inf(1) },
		"critic first moment NaN":   func(ck *Checkpoint) { ck.CriticOpt.M[2][0] = math.NaN() },
		"actor log-σ +Inf":          func(ck *Checkpoint) { ck.Actor.LogStd[0] = math.Inf(1) },
		"actor bias NaN":            func(ck *Checkpoint) { ck.Actor.Net.B[0][0] = math.NaN() },
	} {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Updates < 1 {
			t.Fatalf("%s: no update fired in 5 episodes", name)
		}
		mut(ck)
		tr, err := NewTrainer(testbedSystem(2, 7), cfg)
		if err != nil {
			t.Fatal(err)
		}
		before, err := tr.CaptureCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.RestoreCheckpoint(ck); err == nil {
			t.Errorf("%s: checkpoint accepted", name)
			continue
		} else if !strings.HasPrefix(err.Error(), "core: ") {
			t.Errorf("%s: error without context: %v", name, err)
		}
		after, err := tr.CaptureCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, after) {
			t.Errorf("%s: rejected restore changed the trainer", name)
		}
	}
}

func TestWaveAlignmentEnforced(t *testing.T) {
	cfg := fastConfig()
	cfg.Episodes = 12
	path := trainInterrupted(t, cfg, 3) // sequential checkpoint at episode 3
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ck.Parallel = true
	cfg.Workers = 2
	tr, err := NewTrainer(testbedSystem(2, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.RestoreCheckpoint(ck); err == nil {
		t.Fatal("off-wave parallel checkpoint accepted")
	}
}

// Periodic snapshots must appear at the configured cadence and finish with
// the final episode.
func TestPeriodicCheckpointing(t *testing.T) {
	cfg := fastConfig()
	cfg.Episodes = 5
	cfg.Checkpoint = filepath.Join(t.TempDir(), "auto.json")
	cfg.CheckpointEvery = 2
	var episodes []int
	tr, err := NewTrainer(testbedSystem(2, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(func(st EpisodeStats) {
		if ck, err := LoadCheckpoint(cfg.Checkpoint); err == nil {
			episodes = append(episodes, ck.Episode)
		}
	}); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(cfg.Checkpoint)
	if err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	if ck.Episode != 5 || len(ck.Stats) != 5 {
		t.Fatalf("final checkpoint at episode %d with %d stats, want 5/5", ck.Episode, len(ck.Stats))
	}
	// Resuming a finished run is a no-op that still returns the full series.
	resumed, err := ResumeTrainer(testbedSystem(2, 7), cfg, cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := resumed.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 5 {
		t.Fatalf("finished-run resume returned %d stats", len(stats))
	}
}

// Fault schedules must be invariant to the worker count too: parallel
// rollouts draw per-episode fault seeds from per-episode RNGs.
func TestParallelFaultyDeterminism(t *testing.T) {
	mut := func(c *Config) {
		c.Env.RoundDeadline = 600
		c.Env.Faults = &fault.Config{CrashProb: 0.2, RejoinProb: 0.5, StragglerProb: 0.1}
	}
	refStats, refActor, refCritic := runWithWorkers(t, 1, mut)
	for _, workers := range []int{3, 8} {
		stats, actor, critic := runWithWorkers(t, workers, mut)
		if !reflect.DeepEqual(stats, refStats) {
			t.Fatalf("workers=%d: faulty stats diverge", workers)
		}
		compareParamsBits(t, workers, "actor", actor, refActor)
		compareParamsBits(t, workers, "critic", critic, refCritic)
	}
}

// A checkpointed faulty config must round-trip through JSON including the
// fault configuration's effect (the schedule itself is re-derived from the
// RNG stream, not serialized).
func TestCheckpointEnvConfigIndependent(t *testing.T) {
	cfg := fastConfig()
	cfg.Episodes = 4
	cfg.NormalizeObs = true
	path := trainInterrupted(t, cfg, 2)
	// Restoring into a trainer without the normalizer must fail loudly.
	bad := cfg
	bad.NormalizeObs = false
	tr, err := NewTrainer(testbedSystem(2, 7), bad)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.RestoreCheckpoint(ck); err == nil {
		t.Fatal("normalizer checkpoint accepted by norm-free trainer")
	}
	// And the matching config resumes cleanly.
	if _, err := ResumeTrainer(testbedSystem(2, 7), cfg, path); err != nil {
		t.Fatal(err)
	}
}
