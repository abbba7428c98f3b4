package core

import (
	"testing"

	"repro/internal/nn"
)

// runWithWorkers trains a fresh trainer on an identical system/config pair
// with the given worker count and returns the episode stats plus the final
// actor/critic parameters.
func runWithWorkers(t *testing.T, workers int, mut func(*Config)) ([]EpisodeStats, []nn.Param, []nn.Param) {
	t.Helper()
	sys := testbedSystem(2, 7)
	cfg := fastConfig()
	cfg.Episodes = 10 // more than one wave (waveSize 8)
	cfg.Workers = workers
	if mut != nil {
		mut(&cfg)
	}
	tr, err := NewTrainer(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return eps, tr.actor.Params(), tr.critic.Params()
}

// TestParallelRolloutDeterminism is the merge-ordering contract of the
// rollout pool: under the same seed the training run must be bit-identical
// at any worker count, including worker counts above the episode count
// (which are clamped). Table-driven over worker counts and configuration
// variants that exercise the normalizer replay and the shared actor.
func TestParallelRolloutDeterminism(t *testing.T) {
	variants := map[string]func(*Config){
		"joint":  nil,
		"norm":   func(c *Config) { c.NormalizeObs = true },
		"shared": func(c *Config) { c.Arch = ArchShared },
	}
	for name, mut := range variants {
		t.Run(name, func(t *testing.T) {
			refStats, refActor, refCritic := runWithWorkers(t, 1, mut)
			for _, workers := range []int{2, 4, 64} {
				stats, actor, critic := runWithWorkers(t, workers, mut)
				if len(stats) != len(refStats) {
					t.Fatalf("workers=%d: %d episodes, want %d", workers, len(stats), len(refStats))
				}
				for i := range stats {
					if stats[i] != refStats[i] {
						t.Fatalf("workers=%d episode %d stats diverge:\n%+v\n%+v",
							workers, i, stats[i], refStats[i])
					}
				}
				compareParamsBits(t, workers, "actor", actor, refActor)
				compareParamsBits(t, workers, "critic", critic, refCritic)
			}
		})
	}
}

func compareParamsBits(t *testing.T, workers int, label string, got, want []nn.Param) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("workers=%d %s: param count %d vs %d", workers, label, len(got), len(want))
	}
	for i := range got {
		for j := range got[i].W {
			if got[i].W[j] != want[i].W[j] {
				t.Fatalf("workers=%d %s %s[%d]: %v != %v",
					workers, label, got[i].Name, j, got[i].W[j], want[i].W[j])
			}
		}
	}
}

// TestParallelRolloutProgressOrder checks that the progress callback sees
// episodes in index order even when they are collected concurrently.
func TestParallelRolloutProgressOrder(t *testing.T) {
	sys := testbedSystem(2, 3)
	cfg := fastConfig()
	cfg.Episodes = 9
	cfg.Workers = 4
	tr, err := NewTrainer(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	if _, err := tr.Run(func(st EpisodeStats) {
		if st.Episode != next {
			t.Fatalf("progress episode %d, want %d", st.Episode, next)
		}
		next++
	}); err != nil {
		t.Fatal(err)
	}
	if next != cfg.Episodes {
		t.Fatalf("progress saw %d episodes, want %d", next, cfg.Episodes)
	}
}

// TestParallelUpdateReusesBatch checks that the parallel path converts each
// full buffer into the trainer's reusable batch, as the sequential path
// does, rather than into a fresh batch per update.
func TestParallelUpdateReusesBatch(t *testing.T) {
	sys := testbedSystem(2, 7)
	cfg := fastConfig()
	cfg.Episodes = 16
	cfg.Workers = 2
	tr, err := NewTrainer(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if eps[len(eps)-1].Updates == 0 {
		t.Fatal("no update fired")
	}
	if got := tr.batch.Len(); got != cfg.BufferSize {
		t.Fatalf("trainer batch holds %d rows after %d updates, want %d",
			got, eps[len(eps)-1].Updates, cfg.BufferSize)
	}
}

// TestWorkersValidation covers the new Config.Workers rules.
func TestWorkersValidation(t *testing.T) {
	c := DefaultConfig()
	c.Workers = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative workers accepted")
	}
	c.Workers = 4
	if err := c.Validate(); err != nil {
		t.Fatalf("workers=4 rejected: %v", err)
	}
}
