package nn

import "repro/internal/tensor"

// This file implements the gradient-replica machinery of the deterministic
// data-parallel training engine. A minibatch is cut into fixed-size row
// blocks; each block is forwarded and backpropagated through its own
// CloneGradOnly replica (weights shared with the primary network, gradients
// and forward caches private), and MergeGradTree folds the per-block
// gradients into the primary with a reduction tree whose shape depends only
// on the number of blocks — never on how many workers processed them — so
// the merged gradient is bit-identical at any worker count.

// CloneGradOnly returns a gradient replica of m: a network whose layers
// share m's weight and bias backing arrays but own private gradient
// accumulators and forward caches. Replicas run the same kernels as the
// primary network but overwrite rather than accumulate their gradients on
// each batched backward pass, which makes per-minibatch ZeroGrad calls on
// replicas unnecessary.
func (m *MLP) CloneGradOnly() *MLP {
	var layers []*Linear
	for _, l := range m.Layers {
		nl := &Linear{
			In: l.In, Out: l.Out, Act: l.Act,
			W:  l.W, // shared backing: replica forwards always see live weights
			B:  l.B,
			GW: tensor.NewMatrix(l.Out, l.In),
			GB: tensor.NewVector(l.Out),
			x:  tensor.NewVector(l.In),
			z:  tensor.NewVector(l.Out),
			y:  tensor.NewVector(l.Out),

			setGrads: true,
		}
		layers = append(layers, nl)
	}
	return newMLP(layers)
}

// MergeGradTree reduces the shard gradients into dst's gradient buffers
// with a fixed-shape pairwise tree: strides double (shard i absorbs shard
// i+stride in place) until the final level, which writes its sum directly
// into dst instead of touching dst first. Two properties follow:
//
//   - The addition tree over the B shards is a pure function of B, so the
//     result is bit-identical no matter how many workers filled the shards.
//   - dst's own gradient buffers are overwritten, not accumulated into, so
//     the primary network needs no ZeroGrad between minibatches either.
//
// Shard gradient buffers below the final level are clobbered by the
// reduction; replicas rewrite them on their next backward pass anyway.
func MergeGradTree(dst []Param, shards [][]Param) {
	b := len(shards)
	if b == 0 {
		panic("nn: MergeGradTree needs at least one shard")
	}
	for _, s := range shards {
		if len(s) != len(dst) {
			panic("nn: MergeGradTree shard/dst parameter count mismatch")
		}
	}
	if b == 1 {
		for pi, p := range dst {
			copy(p.G, shards[0][pi].G)
		}
		return
	}
	stride := 1
	for ; stride*2 < b; stride *= 2 {
		for i := 0; i+stride < b; i += stride * 2 {
			for pi := range dst {
				gd := tensor.Vector(shards[i][pi].G)
				gd.Add(gd, shards[i+stride][pi].G)
			}
		}
	}
	for pi, p := range dst {
		tensor.Vector(p.G).Add(shards[0][pi].G, shards[stride][pi].G)
	}
}
