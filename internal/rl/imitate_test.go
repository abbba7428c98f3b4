package rl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// imitateFixture builds a policy and a synthetic (S, A) batch.
func imitateFixture(rows int) (*GaussianPolicy, *tensor.Matrix, *tensor.Matrix) {
	rng := rand.New(rand.NewSource(5))
	p := NewGaussianPolicy(6, 3, []int{16}, 0.4, rng)
	S := tensor.NewMatrix(rows, 6)
	A := tensor.NewMatrix(rows, 3)
	for i := range S.Data {
		S.Data[i] = rng.NormFloat64()
	}
	for i := range A.Data {
		A.Data[i] = 0.8 * math.Tanh(rng.NormFloat64())
	}
	return p, S, A
}

// TestImitatorReducesNLL: behavior cloning must actually fit the batch.
func TestImitatorReducesNLL(t *testing.T) {
	p, S, A := imitateFixture(50)
	im, err := NewImitator(p, 1e-2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := im.Step(S, A)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for e := 0; e < 60; e++ {
		if last, err = im.Step(S, A); err != nil {
			t.Fatal(err)
		}
	}
	if !(last < first) {
		t.Fatalf("NLL did not decrease: first %v, last %v", first, last)
	}
}

// TestImitatorWorkerInvariance: the imitation update inherits the shard
// engine's contract — parameters after K steps are bit-identical at any
// worker count.
func TestImitatorWorkerInvariance(t *testing.T) {
	run := func(workers int) []nn.Param {
		p, S, A := imitateFixture(50)
		im, err := NewImitator(p, 1e-2, 0.5, workers)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 10; e++ {
			if _, err := im.Step(S, A); err != nil {
				t.Fatal(err)
			}
		}
		return p.Params()
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if len(got) != len(ref) {
			t.Fatalf("param count %d vs %d", len(got), len(ref))
		}
		for pi := range ref {
			for k := range ref[pi].W {
				if got[pi].W[k] != ref[pi].W[k] {
					t.Fatalf("workers=%d: param %d element %d = %v, want %v (bit-exact)",
						w, pi, k, got[pi].W[k], ref[pi].W[k])
				}
			}
		}
	}
}

// TestImitatorRejectsBadBatches: dimension mismatches and empty batches
// error before touching parameters.
func TestImitatorRejectsBadBatches(t *testing.T) {
	p, S, A := imitateFixture(10)
	im, err := NewImitator(p, 1e-2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := im.Step(tensor.NewMatrix(0, 6), tensor.NewMatrix(0, 3)); err == nil {
		t.Fatal("accepted empty batch")
	}
	if _, err := im.Step(S, tensor.NewMatrix(9, 3)); err == nil {
		t.Fatal("accepted row mismatch")
	}
	if _, err := im.Step(tensor.NewMatrix(10, 7), A); err == nil {
		t.Fatal("accepted state dim mismatch")
	}
	bad := tensor.NewMatrix(10, 3)
	bad.Data[0] = math.NaN()
	if _, err := im.Step(S, bad); err == nil {
		t.Fatal("accepted NaN action without erroring")
	}
}

// TestImitatorClonesNoCritic: imitation runs no critic, so its engine
// holds none and clones no critic replica for any of a batch's blocks; a
// replica of an N=1000 tenant's critic is megabytes per block.
func TestImitatorClonesNoCritic(t *testing.T) {
	p, S, A := imitateFixture(50)
	im, err := NewImitator(p, 1e-2, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := im.Step(S, A); err != nil {
		t.Fatal(err)
	}
	e := im.engine
	if e.critic != nil || len(e.cshards) != 0 || len(e.cparams) != 0 || len(e.dvviews) != 0 {
		t.Fatalf("imitator holds a critic (%v) or %d critic replicas", e.critic != nil, len(e.cshards))
	}
	if len(e.ashards) != blockCount(50) {
		t.Fatalf("%d actor replicas for %d blocks", len(e.ashards), blockCount(50))
	}
}
