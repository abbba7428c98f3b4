package online

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/guard"
	"repro/internal/guard/chaos"
	"repro/internal/rl"
)

// Defaults applied by NewLoop to zero-valued Config fields. The retrain
// gate's DefaultDriftThreshold, DefaultDriftHysteresis and
// DefaultDriftWindow are fixed: no Config field overrides them.
const (
	DefaultBufferCap       = 1024
	DefaultDriftThreshold  = guard.DefaultOODThreshold
	DefaultDriftHysteresis = guard.DefaultOODHysteresis
	DefaultDriftWindow     = 16
	DefaultMinSamples      = 64
	DefaultLR              = 1e-3
	DefaultEpochs          = 25
	DefaultMaxGradNorm     = 0.5
	DefaultProbeIters      = 20
)

// Config parameterizes the continual-learning loop. The zero value of
// every field selects the documented default.
type Config struct {
	// BufferCap bounds the replay buffer (0 → DefaultBufferCap).
	BufferCap int
	// MinSamples is the replay-buffer fill required before a retrain can
	// trigger (0 → DefaultMinSamples).
	MinSamples int
	// Cooldown is the number of ingested decisions between retrain
	// attempts (0 → MinSamples), bounding retrain frequency while the
	// gate stays open.
	Cooldown int
	// LR / Epochs / MaxGradNorm shape the behavior-cloning fine-tune
	// (0 → the documented defaults).
	LR          float64
	Epochs      int
	MaxGradNorm float64
	// Workers sets the imitation engine's and probe harness's worker
	// counts. Results are bit-identical at any value (0 → 1).
	Workers int
	// CheckpointDir, when set, receives every candidate as an atomically
	// written agent file (candidate-<n>.json) before validation — crash
	// mid-validation never leaves a half-written candidate.
	CheckpointDir string
	// ProbeIters is the per-class iteration count of the promotion probe
	// (0 → DefaultProbeIters).
	ProbeIters int
	// ProbeSeed drives the probe's trace mutators.
	ProbeSeed int64
	// ProbeClasses is the fixed probe set (nil → chaos.Classes()).
	ProbeClasses []chaos.Class
	// Guard configures the probe pipeline (Env/Ref filled by the harness).
	Guard guard.Config
	// Fallback is the probe guard's fallback chain spec.
	Fallback string
	// OnPromote, when set, is called with every promoted candidate — the
	// serving side's hot-swap hook. An error fails the Ingest that
	// triggered the retrain (the loop's champion is already swapped).
	OnPromote func(*core.Agent) error
}

func (c Config) withDefaults() Config {
	if c.BufferCap == 0 {
		c.BufferCap = DefaultBufferCap
	}
	if c.MinSamples == 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.Cooldown == 0 {
		c.Cooldown = c.MinSamples
	}
	if c.LR == 0 {
		c.LR = DefaultLR
	}
	if c.Epochs == 0 {
		c.Epochs = DefaultEpochs
	}
	if c.MaxGradNorm == 0 {
		c.MaxGradNorm = DefaultMaxGradNorm
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.ProbeIters == 0 {
		c.ProbeIters = DefaultProbeIters
	}
	if c.ProbeClasses == nil {
		c.ProbeClasses = chaos.Classes()
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.BufferCap < 1:
		return fmt.Errorf("online: buffer capacity %d must be positive", c.BufferCap)
	case c.MinSamples < 1:
		return fmt.Errorf("online: min samples %d must be positive", c.MinSamples)
	case c.MinSamples > c.BufferCap:
		return fmt.Errorf("online: min samples %d exceeds buffer capacity %d", c.MinSamples, c.BufferCap)
	case c.Cooldown < 1:
		return fmt.Errorf("online: cooldown %d must be positive", c.Cooldown)
	case c.LR <= 0:
		return fmt.Errorf("online: learning rate %v must be positive", c.LR)
	case c.Epochs < 1:
		return fmt.Errorf("online: epochs %d must be positive", c.Epochs)
	case c.MaxGradNorm <= 0:
		return fmt.Errorf("online: gradient clip %v must be positive", c.MaxGradNorm)
	case c.ProbeIters < 1:
		return fmt.Errorf("online: probe iterations %d must be positive", c.ProbeIters)
	case len(c.ProbeClasses) == 0:
		return fmt.Errorf("online: empty probe class set")
	}
	return nil
}

// Loop is the continual-learning driver. It is not safe for concurrent
// use; the serving side feeds it from one goroutine (or hands it whole
// log files).
type Loop struct {
	cfg   Config
	sys   *fl.System
	agent *core.Agent

	rep  *Replayer
	buf  *Buffer
	gate *guard.Hysteresis

	sinceAttempt int
	skipped      int
	retrains     int
	promotions   int
}

// NewLoop builds a continual-learning loop around the serving agent and
// the pristine system its audit logs were served against (the probe
// harness mutates it per class; it is never written).
func NewLoop(sys *fl.System, agent *core.Agent, cfg Config) (*Loop, error) {
	if agent == nil || agent.Policy == nil || agent.Critic == nil {
		return nil, fmt.Errorf("online: nil agent")
	}
	if _, ok := agent.Policy.(*rl.GaussianPolicy); !ok {
		return nil, fmt.Errorf("online: policy %T is not a *rl.GaussianPolicy", agent.Policy)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rep, err := NewReplayer(sys, agent.EnvCfg, agent.Norm)
	if err != nil {
		return nil, err
	}
	return &Loop{
		cfg:          cfg,
		sys:          sys,
		agent:        agent,
		rep:          rep,
		buf:          NewBuffer(cfg.BufferCap),
		gate:         guard.NewHysteresis(DefaultDriftThreshold, DefaultDriftHysteresis, DefaultDriftWindow),
		sinceAttempt: cfg.Cooldown, // an already-drifted log retrains as soon as MinSamples arrive
	}, nil
}

// Agent returns the current champion (the initial agent until a
// promotion, then the latest promoted candidate).
func (l *Loop) Agent() *core.Agent { return l.agent }

// Stats returns lifetime counters: replayed transitions, skipped
// (non-replayable) decisions, retrains and promotions.
func (l *Loop) Stats() (replayed, skipped, retrains, promotions int) {
	return l.buf.Total(), l.skipped, l.retrains, l.promotions
}

// Ingest feeds one parsed audit decision through the loop: the drift gate
// sees its score, replayable decisions join the buffer, and a sustained
// drift with enough buffered experience triggers a retrain. The returned
// report is nil when no retrain ran.
func (l *Loop) Ingest(d guard.Decision) (*Report, error) {
	l.gate.Observe(d.Score)
	if tr, err := l.rep.Transition(d); err == nil {
		l.buf.Add(tr)
	} else {
		l.skipped++
	}
	l.sinceAttempt++
	if !l.gate.Open() || l.buf.Len() < l.cfg.MinSamples || l.sinceAttempt < l.cfg.Cooldown {
		return nil, nil
	}
	l.sinceAttempt = 0
	return l.retrain()
}

// ProcessLog parses a persisted audit log (Audit.Render output or raw
// Lines) and ingests every record in order, returning the reports of all
// retrains it triggered.
func (l *Loop) ProcessLog(text string) ([]*Report, error) {
	var reports []*Report
	for _, d := range guard.ParseLines(text) {
		r, err := l.Ingest(d)
		if err != nil {
			return reports, err
		}
		if r != nil {
			reports = append(reports, r)
		}
	}
	return reports, nil
}
