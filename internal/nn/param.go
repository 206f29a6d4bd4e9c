// Package nn is a compact neural-network stack built on internal/mat. It
// provides exactly what GAN-based trace generation needs: dense and GRU
// layers with manual backpropagation, composite output heads that apply
// per-field activations (sigmoid for continuous fields, softmax for
// categorical groups), the Adam optimizer, WGAN-GP gradient-penalty
// support, and parameter snapshots for fine-tuning (NetShare Insights 3
// and 4 transfer model weights between chunks and from public to private
// models).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
)

// Param is one named trainable tensor together with its gradient
// accumulator. Layers expose their Params so optimizers and snapshot
// utilities can operate uniformly.
type Param struct {
	Name string
	W    *mat.Matrix // weights
	G    *mat.Matrix // accumulated gradient, same shape as W
}

// NewParam returns a zero-initialized parameter of the given shape.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: mat.New(rows, cols), G: mat.New(rows, cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Module is anything that owns trainable parameters.
type Module interface {
	Params() []*Param
}

// ZeroGrads clears the gradients of every parameter of m.
func ZeroGrads(m Module) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// CopyParams copies src's weights into dst, which must expose the same
// parameter list (shape-wise). Gradients are untouched. Unlike a
// Snapshot/Restore round trip it allocates nothing, so the parallel DP
// training loop can refresh its worker replicas every step.
func CopyParams(dst, src Module) {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		panic(fmt.Sprintf("nn: CopyParams param count %d != %d", len(dp), len(sp)))
	}
	for i, p := range dp {
		p.W.CopyFrom(sp[i].W)
	}
}

// GradNorm returns the global L2 norm over all gradients of m.
func GradNorm(m Module) float64 {
	var s float64
	for _, p := range m.Params() {
		for _, g := range p.G.Data {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ScaleGrads multiplies every gradient of m by f.
func ScaleGrads(m Module, f float64) {
	for _, p := range m.Params() {
		p.G.Scale(f)
	}
}

// ClipGradNorm rescales the gradients of m so their global L2 norm is at
// most c, returning the pre-clip norm. This is the per-sample clipping
// primitive DP-SGD builds on.
func ClipGradNorm(m Module, c float64) float64 {
	norm := GradNorm(m)
	if norm > c && norm > 0 {
		ScaleGrads(m, c/norm)
	}
	return norm
}

// Snapshot is a serializable copy of a module's weights, used to warm-start
// fine-tuning (chunk models from the seed chunk, private models from the
// public model).
type Snapshot struct {
	Names  []string
	Shapes [][2]int
	Data   [][]float64
}

// TakeSnapshot copies the current weights of m.
func TakeSnapshot(m Module) *Snapshot {
	ps := m.Params()
	s := &Snapshot{
		Names:  make([]string, len(ps)),
		Shapes: make([][2]int, len(ps)),
		Data:   make([][]float64, len(ps)),
	}
	for i, p := range ps {
		s.Names[i] = p.Name
		s.Shapes[i] = [2]int{p.W.Rows, p.W.Cols}
		s.Data[i] = append([]float64(nil), p.W.Data...)
	}
	return s
}

// Restore copies the snapshot's weights into m. It returns an error if the
// parameter list does not match (name, order, and shape must agree), which
// guards against fine-tuning across incompatible architectures.
func (s *Snapshot) Restore(m Module) error {
	ps := m.Params()
	if len(ps) != len(s.Names) {
		return fmt.Errorf("nn: snapshot has %d params, module has %d", len(s.Names), len(ps))
	}
	for i, p := range ps {
		if p.Name != s.Names[i] {
			return fmt.Errorf("nn: snapshot param %d is %q, module has %q", i, s.Names[i], p.Name)
		}
		if p.W.Rows != s.Shapes[i][0] || p.W.Cols != s.Shapes[i][1] {
			return fmt.Errorf("nn: snapshot param %q shape %v, module has %dx%d",
				p.Name, s.Shapes[i], p.W.Rows, p.W.Cols)
		}
		copy(p.W.Data, s.Data[i])
	}
	return nil
}

// InitXavier applies Glorot-uniform initialization to every 2-D weight of m
// and zeroes 1-row biases (identified by Rows==1).
func InitXavier(m Module, r *rand.Rand) {
	for _, p := range m.Params() {
		if p.W.Rows == 1 {
			p.W.Zero()
			continue
		}
		p.W.Xavier(r, p.W.Rows, p.W.Cols)
	}
}
