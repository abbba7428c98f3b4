package rl

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func randomBatchFor(actor Policy, critic *nn.MLP, n int, rng *rand.Rand) *Batch {
	buf := NewBuffer(n)
	for !buf.Full() {
		s := tensor.NewVector(actor.StateDim())
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		a, logp := actor.Sample(s, rng)
		buf.Add(Transition{State: s, Action: a.Clone(), Reward: rng.NormFloat64(),
			LogProb: logp, Value: critic.Forward(s)[0], Done: rng.Intn(17) == 0})
	}
	return MakeBatchInto(&Batch{}, buf, 0, 0.95, 0.95)
}

func compareParams(t *testing.T, label string, a, b []nn.Param) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		for j := range a[i].W {
			if a[i].W[j] != b[i].W[j] {
				t.Fatalf("%s %s[%d]: %v != %v", label, a[i].Name, j, a[i].W[j], b[i].W[j])
			}
		}
	}
}

// TestLogProbBatchMatchesLogProb pins the row-level equivalence of the
// batched log-density evaluation for both policy architectures.
func TestLogProbBatchMatchesLogProb(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pols := []*GaussianPolicy{
		NewGaussianPolicy(10, 3, []int{8}, 0.5, rng),
		NewSharedGaussianPolicy(5, 2, []int{8}, 0.5, rng),
	}
	for _, p := range pols {
		n := 9
		S := tensor.NewMatrix(n, p.StateDim())
		A := tensor.NewMatrix(n, p.ActionDim())
		for i := range S.Data {
			S.Data[i] = rng.NormFloat64()
		}
		for i := range A.Data {
			A.Data[i] = rng.NormFloat64()
		}
		out := tensor.NewVector(n)
		p.LogProbBatch(S, A, out)
		for i := 0; i < n; i++ {
			if want := p.LogProb(S.Row(i).Clone(), A.Row(i)); out[i] != want {
				t.Fatalf("row %d: batched %v vs sequential %v", i, out[i], want)
			}
		}
	}
}

// TestBackwardLogProbBatchMatchesSequential checks gradient accumulation
// equivalence, including skipped zero-upstream rows.
func TestBackwardLogProbBatchMatchesSequential(t *testing.T) {
	mk := func(seed int64) []*GaussianPolicy {
		rng := rand.New(rand.NewSource(seed))
		return []*GaussianPolicy{
			NewGaussianPolicy(6, 2, []int{8}, 0.5, rng),
			NewSharedGaussianPolicy(3, 2, []int{8}, 0.5, rng),
		}
	}
	as, bs := mk(11), mk(11)
	rng := rand.New(rand.NewSource(5))
	for pi := range as {
		pa, pb := as[pi], bs[pi]
		n := 8
		S := tensor.NewMatrix(n, pa.StateDim())
		A := tensor.NewMatrix(n, pa.ActionDim())
		up := tensor.NewVector(n)
		for i := range S.Data {
			S.Data[i] = rng.NormFloat64()
		}
		for i := range A.Data {
			A.Data[i] = rng.NormFloat64()
		}
		for i := range up {
			if i%3 == 0 {
				up[i] = 0 // exercise the skipped-row path
			} else {
				up[i] = rng.NormFloat64()
			}
		}
		pa.BackwardLogProbBatch(S, A, up)
		for i := 0; i < n; i++ {
			if up[i] != 0 {
				pb.BackwardLogProb(S.Row(i).Clone(), A.Row(i), up[i])
			}
		}
		ga, gb := pa.Params(), pb.Params()
		for i := range ga {
			for j := range ga[i].G {
				if ga[i].G[j] != gb[i].G[j] {
					t.Fatalf("policy %d param %s grad[%d]: %v != %v",
						pi, ga[i].Name, j, ga[i].G[j], gb[i].G[j])
				}
			}
		}
	}
}
