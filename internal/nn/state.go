package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// This file provides JSON-friendly snapshots of networks and optimizer
// state for crash-safe checkpointing and the agent file. Snapshots restore
// IN PLACE: weights are copied into the existing tensors rather than
// reallocating, so views handed out earlier — in particular the &W[0] keys
// of optimizer moment maps — stay valid across a restore. MLPFromState
// builds a network from a snapshot instead.

// MLPState is a serializable snapshot of an MLP's architecture and weights.
type MLPState struct {
	Sizes []int       `json:"sizes"`
	Acts  []int       `json:"acts"`
	W     [][]float64 `json:"w"`
	B     [][]float64 `json:"b"`
}

// State captures the network's architecture and weights.
func (m *MLP) State() MLPState {
	st := MLPState{}
	for i, l := range m.Layers {
		if i == 0 {
			st.Sizes = append(st.Sizes, l.In)
		}
		st.Sizes = append(st.Sizes, l.Out)
		st.Acts = append(st.Acts, int(l.Act))
		st.W = append(st.W, append([]float64(nil), l.W.Data...))
		st.B = append(st.B, append([]float64(nil), l.B...))
	}
	return st
}

// maxWidth bounds every layer width a snapshot read by MLPFromState may
// declare, so that no width read from a file can ask for an allocation (or
// an in·out product) the file's own weights do not back.
const maxWidth = 1 << 24

// MLPFromState builds a network from a snapshot, the way a file's network
// is loaded. Malformed input is an error naming the offending layer, never
// a panic: every width must lie in [1, 2^24], every layer must carry in·out
// weights and out biases, and every activation must be a known one; then
// LoadState's finiteness check applies.
func MLPFromState(st MLPState) (*MLP, error) {
	layers := len(st.Sizes) - 1
	if layers < 1 || len(st.Acts) != layers || len(st.W) > layers || len(st.B) > layers {
		return nil, fmt.Errorf("nn: snapshot has inconsistent layer counts")
	}
	m := &MLP{}
	for i := 0; i < layers; i++ {
		in, out, act := st.Sizes[i], st.Sizes[i+1], Activation(st.Acts[i])
		switch {
		case in < 1 || out < 1 || in > maxWidth || out > maxWidth:
			return nil, fmt.Errorf("nn: snapshot layer %d shape %d→%d outside [1, %d]", i, in, out, maxWidth)
		case i >= len(st.W) || i >= len(st.B):
			return nil, fmt.Errorf("nn: snapshot layer %d has no weights", i)
		case int64(len(st.W[i])) != int64(in)*int64(out) || len(st.B[i]) != out:
			return nil, fmt.Errorf("nn: snapshot layer %d shape mismatch", i)
		case act < Identity || act > Softplus:
			return nil, fmt.Errorf("nn: snapshot layer %d has unknown activation %v", i, act)
		}
		m.Layers = append(m.Layers, newLinear(in, out, act))
	}
	if err := m.LoadState(st); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadState copies a snapshot's weights into the network in place. The
// snapshot's architecture must match exactly, and every weight and bias
// must be finite; nothing is written otherwise.
func (m *MLP) LoadState(st MLPState) error {
	if len(st.Sizes) != len(m.Layers)+1 || len(st.Acts) != len(m.Layers) ||
		len(st.W) != len(m.Layers) || len(st.B) != len(m.Layers) {
		return fmt.Errorf("nn: checkpoint has %d layers, network has %d", len(st.Acts), len(m.Layers))
	}
	for i, l := range m.Layers {
		if st.Sizes[i] != l.In || st.Sizes[i+1] != l.Out || Activation(st.Acts[i]) != l.Act {
			return fmt.Errorf("nn: checkpoint layer %d is %d→%d/%v, network has %d→%d/%v",
				i, st.Sizes[i], st.Sizes[i+1], Activation(st.Acts[i]), l.In, l.Out, l.Act)
		}
		if len(st.W[i]) != len(l.W.Data) || len(st.B[i]) != len(l.B) {
			return fmt.Errorf("nn: checkpoint layer %d weight shape mismatch", i)
		}
		if err := checkFiniteLayer(i, st.W[i], st.B[i]); err != nil {
			return fmt.Errorf("nn: checkpoint %w", err)
		}
	}
	for i, l := range m.Layers {
		copy(l.W.Data, st.W[i])
		copy(l.B, st.B[i])
	}
	return nil
}

// AdamState is a serializable snapshot of an Adam optimizer's step count
// and first/second moment estimates, ordered by the parameter list the
// optimizer steps over.
type AdamState struct {
	T int         `json:"t"`
	M [][]float64 `json:"m"`
	V [][]float64 `json:"v"`
}

// State captures the optimizer's moments for the given parameters — the
// exact slice the caller passes to Step, in the same order. Parameters the
// optimizer has never stepped snapshot as zero moments (which is what a
// first Step would initialize them to).
func (o *Adam) State(params []Param) AdamState {
	st := AdamState{T: o.t}
	for _, p := range params {
		var m, v []float64
		if len(p.W) > 0 {
			m = o.m[&p.W[0]]
			v = o.v[&p.W[0]]
		}
		if m == nil {
			m = make([]float64, len(p.W))
			v = make([]float64, len(p.W))
		}
		st.M = append(st.M, append([]float64(nil), m...))
		st.V = append(st.V, append([]float64(nil), v...))
	}
	return st
}

// LoadState restores moments captured by State for the same parameter list.
// Every first moment must be finite and every second moment finite and
// non-negative (a negative one would make the next step's square root NaN);
// nothing is written otherwise.
func (o *Adam) LoadState(params []Param, st AdamState) error {
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: Adam checkpoint has %d/%d moment rows for %d params",
			len(st.M), len(st.V), len(params))
	}
	for i, p := range params {
		if len(st.M[i]) != len(p.W) || len(st.V[i]) != len(p.W) {
			return fmt.Errorf("nn: Adam checkpoint row %d has %d moments for %d weights",
				i, len(st.M[i]), len(p.W))
		}
		if j := tensor.Vector(st.M[i]).FirstNonFinite(); j >= 0 {
			return fmt.Errorf("nn: Adam checkpoint row %d first moment %d is %v, want finite", i, j, st.M[i][j])
		}
		for j, v := range st.V[i] {
			if !(v >= 0) || math.IsInf(v, 1) {
				return fmt.Errorf("nn: Adam checkpoint row %d second moment %d is %v, want finite and ≥ 0", i, j, v)
			}
		}
	}
	if st.T < 0 {
		return fmt.Errorf("nn: Adam checkpoint step count %d negative", st.T)
	}
	o.t = st.T
	for i, p := range params {
		if len(p.W) == 0 {
			continue
		}
		key := &p.W[0]
		o.m[key] = append([]float64(nil), st.M[i]...)
		o.v[key] = append([]float64(nil), st.V[i]...)
	}
	return nil
}

// checkFiniteLayer reports the first non-finite weight or bias of layer i.
func checkFiniteLayer(i int, w, b []float64) error {
	if j := tensor.Vector(w).FirstNonFinite(); j >= 0 {
		return fmt.Errorf("layer %d weight %d is %v, want finite", i, j, w[j])
	}
	if j := tensor.Vector(b).FirstNonFinite(); j >= 0 {
		return fmt.Errorf("layer %d bias %d is %v, want finite", i, j, b[j])
	}
	return nil
}
