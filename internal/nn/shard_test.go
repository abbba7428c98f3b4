package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func randBatch(n, d int, rng *rand.Rand) *tensor.Matrix {
	m := tensor.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestCloneGradOnlySharesWeights pins the replica contract: weights and
// biases alias the primary's storage (a primary update is instantly visible
// to every replica) while gradients stay private.
func TestCloneGradOnlySharesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewMLP([]int{4, 8, 2}, Tanh, Identity, rng)
	rep := net.CloneGradOnly()

	net.Layers[0].W.Data[0] = 123.5
	net.Layers[1].B[1] = -7.25
	if rep.Layers[0].W.Data[0] != 123.5 || rep.Layers[1].B[1] != -7.25 {
		t.Fatal("replica does not share weight/bias storage with primary")
	}
	if &rep.Layers[0].GW.Data[0] == &net.Layers[0].GW.Data[0] {
		t.Fatal("replica shares gradient storage with primary")
	}

	// A replica backward must not disturb the primary's accumulated grads.
	X := randBatch(6, 4, rng)
	D := randBatch(6, 2, rng)
	net.ZeroGrad()
	rep.ForwardBatch(X)
	rep.BackwardBatchParams(D)
	for _, p := range net.Params() {
		for _, g := range p.G {
			if g != 0 {
				t.Fatal("replica backward wrote into primary gradients")
			}
		}
	}
}

// TestCloneGradOnlySetsGrads pins the zero-free accumulation contract: a
// replica's batched backward overwrites stale gradients instead of adding
// to them, so no ZeroGrad is needed between minibatches.
func TestCloneGradOnlySetsGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewMLP([]int{3, 6, 2}, Tanh, Identity, rng)
	rep := net.CloneGradOnly()
	X := randBatch(5, 3, rng)
	D := randBatch(5, 2, rng)

	rep.ForwardBatch(X)
	rep.BackwardBatchParams(D)
	want := make([][]float64, 0)
	for _, p := range rep.Params() {
		want = append(want, append([]float64(nil), p.G...))
	}

	// Run the same minibatch again without zeroing: grads must not double.
	rep.ForwardBatch(X)
	rep.BackwardBatchParams(D)
	for pi, p := range rep.Params() {
		for i, g := range p.G {
			if g != want[pi][i] {
				t.Fatalf("param %s[%d]: second pass %v != first %v (accumulated, not set)",
					p.Name, i, g, want[pi][i])
			}
		}
	}
}

// refTreeSum computes the reduction tree MergeGradTree promises for b
// shards, elementwise, from untouched copies of the shard grads.
func refTreeSum(grads [][]float64) []float64 {
	b := len(grads)
	work := make([][]float64, b)
	for i, g := range grads {
		work[i] = append([]float64(nil), g...)
	}
	if b == 1 {
		return work[0]
	}
	stride := 1
	for ; stride*2 < b; stride *= 2 {
		for i := 0; i+stride < b; i += stride * 2 {
			for k := range work[i] {
				work[i][k] += work[i+stride][k]
			}
		}
	}
	out := make([]float64, len(work[0]))
	for k := range out {
		out[k] = work[0][k] + work[stride][k]
	}
	return out
}

// TestMergeGradTreeShape pins the exact reduction tree for every shard
// count up to 9, and that the destination is overwritten (stale primary
// grads never leak into the merge).
func TestMergeGradTreeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for b := 1; b <= 9; b++ {
		net := NewMLP([]int{3, 5, 2}, Tanh, Identity, rng)
		for _, p := range net.Params() {
			for i := range p.G {
				p.G[i] = 999 // must be overwritten, not accumulated into
			}
		}
		shards := make([][]Param, b)
		raw := make([][][]float64, b)
		for s := 0; s < b; s++ {
			rep := net.CloneGradOnly()
			shards[s] = rep.Params()
			raw[s] = make([][]float64, len(shards[s]))
			for pi, p := range shards[s] {
				for i := range p.G {
					p.G[i] = rng.NormFloat64()
				}
				raw[s][pi] = append([]float64(nil), p.G...)
			}
		}
		MergeGradTree(net.Params(), shards)
		for pi, p := range net.Params() {
			grads := make([][]float64, b)
			for s := 0; s < b; s++ {
				grads[s] = raw[s][pi]
			}
			want := refTreeSum(grads)
			for i, g := range p.G {
				if g != want[i] {
					t.Fatalf("b=%d param %s[%d]: merged %v != tree %v", b, p.Name, i, g, want[i])
				}
			}
		}
	}
}

// TestShardedBackwardMatchesMonolith splits a batch into fixed row blocks,
// runs each block through its own replica, merges with MergeGradTree, and
// checks the result against the monolithic batched backward. The summation
// trees differ (block-grouped vs strictly sequential), so the comparison is
// a tight tolerance, not bit equality — the determinism contract is about
// worker-count invariance, which TestMergeGradTreeShape pins structurally.
func TestShardedBackwardMatchesMonolith(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewMLP([]int{6, 16, 3}, Tanh, Identity, rng)
	mono := net.Clone()

	const n, block = 37, 16 // odd total forces a short trailing block
	X := randBatch(n, 6, rng)
	D := randBatch(n, 3, rng)

	mono.ZeroGrad()
	mono.ForwardBatch(X)
	mono.BackwardBatchParams(D)

	var shards [][]Param
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		rep := net.CloneGradOnly()
		xv := &tensor.Matrix{Rows: hi - lo, Cols: 6, Data: X.Data[lo*6 : hi*6]}
		dv := &tensor.Matrix{Rows: hi - lo, Cols: 3, Data: D.Data[lo*3 : hi*3]}
		rep.ForwardBatch(xv)
		rep.BackwardBatchParams(dv)
		shards = append(shards, rep.Params())
	}
	MergeGradTree(net.Params(), shards)

	mp, sp := mono.Params(), net.Params()
	for pi := range sp {
		for i := range sp[pi].G {
			got, want := sp[pi].G[i], mp[pi].G[i]
			if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("param %s[%d]: sharded %v vs monolith %v", sp[pi].Name, i, got, want)
			}
		}
	}
}

// TestBackwardBatchParamsMatchesBackwardBatch pins that skipping the
// layer-0 input gradient changes no parameter gradient bit.
func TestBackwardBatchParamsMatchesBackwardBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := NewMLP([]int{5, 10, 2}, Tanh, Identity, rng)
	b := a.Clone()
	X := randBatch(8, 5, rng)
	D := randBatch(8, 2, rng)

	a.ForwardBatch(X)
	a.BackwardBatch(D)
	b.ForwardBatch(X)
	b.BackwardBatchParams(D)

	ap, bp := a.Params(), b.Params()
	for pi := range ap {
		for i := range ap[pi].G {
			if ap[pi].G[i] != bp[pi].G[i] {
				t.Fatalf("param %s[%d]: %v != %v", ap[pi].Name, i, bp[pi].G[i], ap[pi].G[i])
			}
		}
	}
}

// TestBatchedGradCheck runs central finite differences over the batched
// forward against the analytic gradients produced by the tiled backward
// kernels, for both serial replicas and the parallel primary path.
func TestBatchedGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, serial := range []bool{false, true} {
		net := NewMLP([]int{4, 9, 3}, Tanh, Identity, rng)
		work := net
		if serial {
			work = net.CloneGradOnly()
		}
		const n = 11
		X := randBatch(n, 4, rng)
		Wt := randBatch(n, 3, rng) // fixed loss weights: L = Σ Wt∘Y

		loss := func() float64 {
			Y := work.ForwardBatch(X)
			var s float64
			for i, y := range Y.Data {
				s += Wt.Data[i] * y
			}
			return s
		}

		work.ZeroGrad()
		loss()
		work.BackwardBatchParams(Wt)

		const h = 1e-6
		for _, p := range work.Params() {
			for i := range p.W {
				orig := p.W[i]
				p.W[i] = orig + h
				up := loss()
				p.W[i] = orig - h
				down := loss()
				p.W[i] = orig
				numeric := (up - down) / (2 * h)
				if math.Abs(numeric-p.G[i]) > 1e-4*(1+math.Abs(numeric)) {
					t.Fatalf("serial=%v param %s[%d]: analytic %v vs numeric %v",
						serial, p.Name, i, p.G[i], numeric)
				}
			}
		}
	}
}

// TestStepScaledMatchesClipThenStep pins the optimizer fusion: one
// StepScaled with the clip multiplier must reproduce ClipGradNorm followed
// by Step bit for bit, across clipping and non-clipping norms.
func TestStepScaledMatchesClipThenStep(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, maxNorm := range []float64{0.001, 0.5, 1e9, 0} {
		a := NewMLP([]int{3, 7, 2}, Tanh, Identity, rng)
		b := a.Clone()
		for pi, p := range a.Params() {
			for i := range p.G {
				g := rng.NormFloat64()
				p.G[i] = g
				b.Params()[pi].G[i] = g
			}
		}
		oa, ob := NewAdam(3e-3), NewAdam(3e-3)
		for step := 0; step < 3; step++ {
			ClipGradNorm(a.Params(), maxNorm)
			oa.Step(a.Params())

			scale := ClipScale(GradNorm(b.Params()), maxNorm)
			ob.StepScaled(b.Params(), scale)

			ap, bp := a.Params(), b.Params()
			for pi := range ap {
				for i := range ap[pi].W {
					if ap[pi].W[i] != bp[pi].W[i] {
						t.Fatalf("maxNorm=%v step %d param %s[%d]: fused %v != legacy %v",
							maxNorm, step, ap[pi].Name, i, bp[pi].W[i], ap[pi].W[i])
					}
				}
			}
		}
	}
}

// TestClipGradNormSinglePass pins the restructured ClipGradNorm against an
// inline two-pass reference, including the no-clip and disabled cases.
func TestClipGradNormSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, maxNorm := range []float64{0.001, 0.75, 1e9, 0, -1} {
		a := NewMLP([]int{3, 5, 2}, Tanh, Identity, rng)
		b := a.Clone()
		for pi, p := range a.Params() {
			for i := range p.G {
				g := rng.NormFloat64()
				p.G[i] = g
				b.Params()[pi].G[i] = g
			}
		}
		gotNorm := ClipGradNorm(a.Params(), maxNorm)

		// Historical two-pass form.
		var sq float64
		for _, p := range b.Params() {
			for _, g := range p.G {
				sq += g * g
			}
		}
		wantNorm := math.Sqrt(sq)
		if maxNorm > 0 && wantNorm > maxNorm {
			scale := maxNorm / (wantNorm + 1e-12)
			for _, p := range b.Params() {
				for i := range p.G {
					p.G[i] *= scale
				}
			}
		}

		if gotNorm != wantNorm {
			t.Fatalf("maxNorm=%v: norm %v != reference %v", maxNorm, gotNorm, wantNorm)
		}
		ap, bp := a.Params(), b.Params()
		for pi := range ap {
			for i := range ap[pi].G {
				if ap[pi].G[i] != bp[pi].G[i] {
					t.Fatalf("maxNorm=%v param %s[%d]: %v != %v",
						maxNorm, ap[pi].Name, i, ap[pi].G[i], bp[pi].G[i])
				}
			}
		}
	}
}

// TestParamsCachedStable pins the caching contract: repeated Params() calls
// return the same backing slice with len == cap, so caller appends copy.
func TestParamsCachedStable(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	net := NewMLP([]int{3, 4, 2}, Tanh, Identity, rng)
	p1 := net.Params()
	p2 := net.Params()
	if &p1[0] != &p2[0] {
		t.Fatal("Params() not cached")
	}
	if len(p1) != cap(p1) {
		t.Fatalf("Params() len %d != cap %d: caller appends would alias the cache", len(p1), cap(p1))
	}
	ext := append(net.Params(), Param{Name: "extra"})
	if len(net.Params()) != len(p1) {
		t.Fatal("append to Params() result mutated the cache")
	}
	_ = ext
}
