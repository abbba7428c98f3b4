package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/perfbench/stat"
)

// train-testbed runs Algorithm 1 exactly as fltrain does by default: the
// paper testbed (N=3, λ=1, fltrain's default scenario seed 1), a joint
// 64×64 actor, PPO with M=8, buffer 256, 40-iteration episodes, 300
// episodes, sequential rollouts and a single-threaded update engine. The
// benchmark seed picks the training seeds. Each repetition is one full
// training run on its own seed; the cost metric averages the first
// trainCostReps of them, so it is fixed for a given benchmark seed.
const (
	trainEpisodes = 300
	trainCostReps = 4
	trainScenario = 1
	trainSetups   = 25
)

// trainSeed is the training seed of repetition r.
func trainSeed(seed int64, r int) int64 { return seed*7919 + int64(r) }

// trainConfig builds the testbed system and fltrain's default training
// configuration for one training seed.
func trainConfig(seed int64) (*fl.System, core.Config, error) {
	sys, err := experiments.TestbedScenario(trainScenario).Build()
	if err != nil {
		return nil, core.Config{}, err
	}
	cfg, err := experiments.TrainConfig(sys, experiments.TrainOptions{
		Episodes: trainEpisodes, Hidden: []int{64, 64}, Arch: core.ArchJoint, Seed: seed,
	})
	return sys, cfg, err
}

// newTrainer is the set-up of one training run.
func newTrainer(seed int64) (*core.Trainer, error) {
	sys, cfg, err := trainConfig(seed)
	if err != nil {
		return nil, err
	}
	return core.NewTrainer(sys, cfg)
}

// finalCost is the mean eq. 9 cost per iteration over the last tenth of
// the episodes.
func finalCost(costs []float64) float64 { return mean(costs[len(costs)-len(costs)/10:]) }

// checkEpisodes checks that every episode's cost is finite and positive.
func checkEpisodes(out *outcome, rep int, costs []float64) {
	for ep, c := range costs {
		if math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
			out.failed++
			out.check(false, "train rep %d episode %d: cost %v", rep, ep, c)
		}
	}
}

func runTrain(o runOpts) (*outcome, error) {
	if o.trace {
		return traceTrain(o)
	}
	out := &outcome{}
	// Set-up takes about a millisecond, so it is timed on its own, many
	// times, before the training runs.
	var setups, rates, episodeMS, costs, firsts []float64
	for r := 0; r < trainSetups; r++ {
		t0 := time.Now()
		if _, err := newTrainer(trainSeed(o.seed, r)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	start := time.Now()
	for r := 0; r < trainCostReps || time.Since(start) < o.seconds; r++ {
		tr, err := newTrainer(trainSeed(o.seed, r))
		if err != nil {
			return nil, err
		}
		var epCosts []float64
		t1 := time.Now()
		last := t1
		eps, err := tr.Run(func(st core.EpisodeStats) {
			now := time.Now()
			episodeMS = append(episodeMS, float64(now.Sub(last))/1e6)
			last = now
		})
		wall := time.Since(t1)
		if err != nil {
			return nil, fmt.Errorf("train rep %d: %w", r, err)
		}
		for _, e := range eps {
			epCosts = append(epCosts, e.AvgCost)
		}
		out.attempted += int64(len(eps))
		checkEpisodes(out, r, epCosts)
		out.check(eps[len(eps)-1].Updates > 0, "train rep %d: no PPO update ran", r)
		rates = append(rates, float64(len(eps)*tr.Cfg.Env.EpisodeLen)/wall.Seconds())
		if r < trainCostReps {
			costs = append(costs, finalCost(epCosts))
			firsts = append(firsts, epCosts[0])
		}
	}
	// Training must have learned: over the runs the cost metric averages,
	// the final tenth costs less than the first episode. One run alone is
	// no test: an episode's cost depends on its random start time, and an
	// untrained actor's first episode sometimes lands below a trained tail.
	out.check(mean(costs) < mean(firsts), "train: final-tenth cost %.4g not below the first episodes' %.4g", mean(costs), mean(firsts))
	out.set("setup_s", stat.Median(setups), "s")
	out.set("ops_per_s", stat.Median(rates), "1/s")
	out.set("p50_ms", percentile(episodeMS, 0.5), "ms")
	out.set("cost", mean(costs), "eq9")
	fmt.Printf("train-testbed: %d training runs of %d episodes\n", len(rates), trainEpisodes)
	return out, nil
}

// replica drives Algorithm 1 through the same public calls
// core.Trainer.RunEpisode makes, with a span around each call into env and
// rl. It must reproduce core.Trainer.Run bit for bit.
type replica struct {
	cfg      core.Config
	env      *env.Env
	actor    rl.Policy
	actorOld rl.Policy
	ppo      *rl.PPO
	buffer   *rl.Buffer
	batch    *rl.Batch
	rng      *rand.Rand

	updates, epochs, skipped int
}

// newReplica mirrors core.NewTrainer for the unconstrained joint-actor PPO
// configuration, drawing from the RNG in the same order.
func newReplica(sys *fl.System, cfg core.Config) (*replica, error) {
	if cfg.Arch != core.ArchJoint || cfg.Algo != core.AlgoPPO || cfg.NormalizeObs || cfg.PPO.Constraint.Enabled || cfg.Workers != 0 {
		return nil, fmt.Errorf("replica: only the default sequential joint-actor PPO configuration is mirrored")
	}
	rng := rand.New(rl.NewCountingSource(cfg.Seed))
	e, err := env.New(sys, cfg.Env, rng)
	if err != nil {
		return nil, err
	}
	actor := rl.NewGaussianPolicy(e.StateDim(), e.ActionDim(), cfg.Hidden, cfg.InitStd, rng)
	critic := nn.NewMLP(append(append([]int{e.StateDim()}, cfg.Hidden...), 1), nn.Tanh, nn.Identity, rng)
	if cfg.TrainWorkers > 0 {
		cfg.PPO.Workers = cfg.TrainWorkers
	}
	ppo, err := rl.NewPPO(cfg.PPO, actor, critic, rng)
	if err != nil {
		return nil, err
	}
	return &replica{
		cfg: cfg, env: e, actor: actor, actorOld: actor.ClonePolicy(), ppo: ppo,
		buffer: rl.NewBuffer(cfg.BufferSize), batch: &rl.Batch{}, rng: rng,
	}, nil
}

// episode runs one traced training episode and returns its mean cost.
func (r *replica) episode(t *tracer) (float64, error) {
	s := t.begin("env.reset", -1)
	state, err := r.env.Reset()
	t.end(s)
	if err != nil {
		return 0, err
	}
	costSum, steps := 0.0, 0
	for {
		s = t.begin("rl.sample", -1)
		action, logp := r.actorOld.Sample(state, r.rng)
		t.end(s)
		s = t.begin("rl.value", -1)
		value := r.ppo.Value(state)
		t.end(s)
		stored := state.Clone()
		s = t.begin("env.step", -1)
		res, err := r.env.StepInto(action)
		t.end(s)
		if err != nil {
			return 0, err
		}
		r.buffer.Add(rl.Transition{
			State: stored, Action: action.Clone(), Reward: res.Reward, LogProb: logp,
			Value: value, Done: res.Done, Cost: rl.CostVec(res.Costs),
		})
		costSum += res.Iter.Cost
		steps++
		state = res.State
		if r.buffer.Full() {
			lastValue := 0.0
			if !res.Done {
				s = t.begin("rl.value", -1)
				lastValue = r.ppo.Value(state)
				t.end(s)
			}
			s = t.begin("rl.batch", -1)
			batch := rl.MakeBatchInto(r.batch, r.buffer, lastValue, r.cfg.PPO.Gamma, r.cfg.PPO.Lambda)
			t.end(s)
			s = t.begin("rl.update", -1)
			st, err := r.ppo.Update(batch)
			t.end(s)
			if err != nil {
				return 0, err
			}
			r.updates++
			r.epochs += st.EpochsRun
			r.skipped += st.SkippedMinibatches
			r.actorOld.CopyFrom(r.actor)
			r.buffer.Clear()
		}
		if res.Done {
			break
		}
	}
	return costSum / float64(steps), nil
}

// traceTrain times the replica against core.Trainer.Run on the same seeds,
// alternating the two, and checks the per-episode costs agree bit for bit.
func traceTrain(o runOpts) (*outcome, error) {
	out := &outcome{}
	t := newTracer(1 << 20)
	var plain, traced []float64
	var wall time.Duration
	var rep *replica
	start := time.Now()
	for r := 0; r < 2 || time.Since(start) < o.seconds; r++ {
		seed := trainSeed(o.seed, r)
		tr, err := newTrainer(seed)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		eps, err := tr.Run(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(t0).Seconds())

		sys, cfg, err := trainConfig(seed)
		if err != nil {
			return nil, err
		}
		if rep, err = newReplica(sys, cfg); err != nil {
			return nil, err
		}
		t = newTracer(1 << 20) // keep only the last replica's spans
		t0 = time.Now()
		costs := make([]float64, 0, trainEpisodes)
		for ep := 0; ep < trainEpisodes; ep++ {
			c, err := rep.episode(t)
			if err != nil {
				return nil, err
			}
			costs = append(costs, c)
		}
		wall = time.Since(t0)
		traced = append(traced, wall.Seconds())
		out.attempted += int64(len(costs))
		checkEpisodes(out, r, costs)
		for ep := range eps {
			if eps[ep].AvgCost != costs[ep] {
				out.check(false, "train rep %d episode %d: replica cost %v, core.Trainer %v", r, ep, costs[ep], eps[ep].AvgCost)
				break
			}
		}
	}
	st, spanned := t.stats()
	out.set("rl.update_ms", st["rl.update"].meanUS()/1e3, "ms")
	out.set("rl.update_share", float64(st["rl.update"].total)/float64(wall), "share")
	out.set("rl.sample_us", st["rl.sample"].meanUS(), "us")
	out.set("rl.value_us", st["rl.value"].meanUS(), "us")
	out.set("rl.batch_us", st["rl.batch"].meanUS(), "us")
	out.set("rl.epochs_run_share", float64(rep.epochs)/float64(rep.updates*rep.cfg.PPO.Epochs), "share")
	out.set("rl.skipped_minibatches", float64(rep.skipped), "count")
	out.set("env.step_us", st["env.step"].meanUS(), "us")
	out.set("train.unattributed_share", float64(wall-spanned)/float64(wall), "share")
	out.set("tracing.overhead_share", stat.Median(traced)/stat.Median(plain)-1, "share")
	printSpans("train-testbed", st, wall)
	return out, nil
}
