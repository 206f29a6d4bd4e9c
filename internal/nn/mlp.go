package nn

import (
	"math/rand"

	"repro/internal/mat"
)

// MLP is a multi-layer perceptron: Dense layers interleaved with a hidden
// activation, with a configurable output activation (often Identity for
// WGAN critics).
//
// Its training passes run in the layers' own buffers (each activation is
// applied in place on its Dense output), so a returned matrix is valid
// until the MLP's next Forward or Backward.
type MLP struct {
	layers []*Dense
	acts   []activation

	dOut mat.Matrix     // copy of Backward's dout for a non-identity output activation
	gp   penaltyScratch // GradientPenalty's workspace
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes =
// [in, h1, h2, out]. hidden is the activation after every layer except the
// last; out is the activation after the last layer.
func NewMLP(name string, sizes []int, hidden, out ActKind, r *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least [in, out] sizes")
	}
	m := &MLP{}
	for i := 0; i < len(sizes)-1; i++ {
		d := NewDense(name+"."+itoa(i), sizes[i], sizes[i+1])
		m.layers = append(m.layers, d)
		kind := hidden
		if i == len(sizes)-2 {
			kind = out
		}
		m.acts = append(m.acts, activation{kind: kind})
	}
	InitXavier(m, r)
	return m
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// Params implements Module.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Clone returns an independent replica of the MLP: identical architecture
// and weights, fresh gradients, caches and buffers. Replicas back the
// per-worker critics of parallel DP-SGD.
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for i, l := range m.layers {
		c.layers = append(c.layers, l.Clone())
		c.acts = append(c.acts, activation{kind: m.acts[i].kind})
	}
	return c
}

// Forward runs the batch x through all layers. x must stay unchanged until
// the matching Backward.
func (m *MLP) Forward(x *mat.Matrix) *mat.Matrix {
	h := x
	for i, l := range m.layers {
		h = m.acts[i].forward(l.Forward(h))
	}
	return h
}

// Backward propagates dout (∂L/∂output) through the network, accumulating
// parameter gradients, and returns ∂L/∂input. dout is left unchanged.
func (m *MLP) Backward(dout *mat.Matrix) *mat.Matrix { return m.backward(dout, true) }

// BackwardInput returns ∂L/∂input for dout like Backward, but leaves every
// parameter gradient untouched: the pass for a gradient with respect to
// the input only (a penalty probe, or a generator step through a frozen
// critic).
func (m *MLP) BackwardInput(dout *mat.Matrix) *mat.Matrix { return m.backward(dout, false) }

func (m *MLP) backward(dout *mat.Matrix, params bool) *mat.Matrix {
	d := dout
	if m.acts[len(m.acts)-1].kind != Identity {
		d = m.dOut.Reshape(dout.Rows, dout.Cols)
		copy(d.Data, dout.Data)
	}
	for i := len(m.layers) - 1; i >= 0; i-- {
		// d is changed in place: below the top it is layer i+1's
		// input-gradient buffer, and at the top it is the caller's dout
		// only under an identity, which leaves it unchanged.
		d = m.acts[i].backward(d)
		if params {
			d = m.layers[i].Backward(d)
		} else {
			d = m.layers[i].backwardInput(d)
		}
	}
	return d
}

// In returns the input width.
func (m *MLP) In() int { return m.layers[0].In }

// Out returns the output width.
func (m *MLP) Out() int { return m.layers[len(m.layers)-1].Out }
