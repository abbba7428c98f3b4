package nn

import (
	"math"

	"repro/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba 2015) with bias
// correction.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t    int
	m, v map[*float64][]float64
}

// NewAdam returns an Adam optimizer with the usual defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: make(map[*float64][]float64),
		v: make(map[*float64][]float64),
	}
}

// Step applies one Adam update.
func (o *Adam) Step(params []Param) { o.StepScaled(params, 1) }

// StepScaled applies one Adam update reading each gradient as G[i]*scale,
// fusing gradient clipping into the moment update so the gradient buffers
// are read once and never rewritten. Because x*1 is an exact identity (for
// every float64 including ±0 and NaN), StepScaled(p, 1) is bit-identical to
// an unscaled step, and StepScaled(p, ClipScale(GradNorm(p), max)) is
// bit-identical to ClipGradNorm(p, max) followed by Step(p).
func (o *Adam) StepScaled(params []Param, scale float64) {
	o.t++
	c := tensor.AdamCoeffs{
		LR: o.LR, Beta1: o.Beta1, Beta2: o.Beta2, Epsilon: o.Epsilon,
		BC1:   1 - math.Pow(o.Beta1, float64(o.t)),
		BC2:   1 - math.Pow(o.Beta2, float64(o.t)),
		Scale: scale,
	}
	for _, p := range params {
		if len(p.W) == 0 {
			continue
		}
		key := &p.W[0]
		m := o.m[key]
		v := o.v[key]
		if m == nil {
			m = make([]float64, len(p.W))
			v = make([]float64, len(p.W))
			o.m[key] = m
			o.v[key] = v
		}
		tensor.AdamStep(p.W, p.G, m, v, c)
	}
}

// GradNorm returns the global L2 norm of all gradients, summing squares in
// the same parameter-then-element order ClipGradNorm has always used.
func GradNorm(params []Param) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.G {
			sq += g * g
		}
	}
	return math.Sqrt(sq)
}

// ClipScale returns the multiplier gradient clipping applies for a pre-clip
// norm: 1 when no clipping is needed (maxNorm ≤ 0, norm ≤ maxNorm, or a
// NaN norm, which disables clipping just as the historical comparison did).
func ClipScale(norm, maxNorm float64) float64 {
	if maxNorm > 0 && norm > maxNorm {
		return maxNorm / (norm + 1e-12)
	}
	return 1
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, and returns the pre-clip norm. maxNorm ≤ 0 disables clipping.
// It is a single read pass plus a conditional scale pass; callers on the
// hot path should fuse the scale into Adam.StepScaled instead, which is
// bit-identical (pinned by TestStepScaledMatchesClipThenStep).
func ClipGradNorm(params []Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if scale := ClipScale(norm, maxNorm); scale != 1 {
		for _, p := range params {
			for i := range p.G {
				p.G[i] *= scale
			}
		}
	}
	return norm
}
