package rl

import (
	"fmt"
	"math"
)

// GAEInto computes generalized advantage estimates and discounted returns
// for a trajectory segment, writing them into caller-provided slices that
// must match the trajectory length.
//
//	δ_t = r_t + γ·V(s_{t+1})·(1−done_t) − V(s_t)
//	A_t = δ_t + γλ·(1−done_t)·A_{t+1}
//
// values has one entry per step; lastValue bootstraps V(s_T) for a segment
// cut before episode end. Returns are A_t + V(s_t), the critic's regression
// targets. With λ=1 the advantages reduce to discounted Monte-Carlo returns
// minus the baseline.
func GAEInto(adv, ret, rewards, values []float64, lastValue float64, dones []bool, gamma, lambda float64) {
	n := len(rewards)
	if len(values) != n || len(dones) != n {
		panic(fmt.Sprintf("rl: GAE length mismatch r=%d v=%d d=%d", n, len(values), len(dones)))
	}
	if len(adv) != n || len(ret) != n {
		panic(fmt.Sprintf("rl: GAE output length mismatch adv=%d ret=%d want %d", len(adv), len(ret), n))
	}
	if gamma < 0 || gamma > 1 || lambda < 0 || lambda > 1 {
		panic(fmt.Sprintf("rl: GAE γ=%v λ=%v outside [0,1]", gamma, lambda))
	}
	var next float64
	nextValue := lastValue
	for t := n - 1; t >= 0; t-- {
		notDone := 1.0
		if dones[t] {
			notDone = 0
		}
		delta := rewards[t] + gamma*nextValue*notDone - values[t]
		next = delta + gamma*lambda*notDone*next
		adv[t] = next
		ret[t] = adv[t] + values[t]
		nextValue = values[t]
	}
}

// NormalizeAdvantages rescales advantages to zero mean and unit variance in
// place, the standard PPO stabilization. A near-constant batch is left
// centered but unscaled.
func NormalizeAdvantages(adv []float64) {
	if len(adv) == 0 {
		return
	}
	var mean float64
	for _, a := range adv {
		mean += a
	}
	mean /= float64(len(adv))
	var sq float64
	for _, a := range adv {
		d := a - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(adv)))
	for i := range adv {
		adv[i] -= mean
		if std > 1e-8 {
			adv[i] /= std
		}
	}
}
