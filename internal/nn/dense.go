package nn

import (
	"fmt"

	"repro/internal/mat"
)

// Dense is a fully connected layer computing Y = X·W + b for a batch X
// whose rows are samples.
//
// Forward and Backward write into buffers the layer owns and reuses, sized
// on first use: a returned matrix is valid until the layer's next Forward
// or Backward.
type Dense struct {
	In, Out int
	Weight  *Param // In×Out
	Bias    *Param // 1×Out

	lastX     *mat.Matrix // cached input for backward
	y, dw, dx mat.Matrix  // output, weight-gradient and input-gradient buffers
}

// NewDense returns a Dense layer with zero weights; call InitXavier on the
// owning model to initialize.
func NewDense(name string, in, out int) *Dense {
	return &Dense{
		In:     in,
		Out:    out,
		Weight: NewParam(name+".w", in, out),
		Bias:   NewParam(name+".b", 1, out),
	}
}

// Params implements Module.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Clone returns an independent copy of the layer: same names and weights,
// fresh gradient accumulators, caches and buffers. Parallel training uses
// clones as per-worker replicas so per-sample backward passes never share
// state.
func (d *Dense) Clone() *Dense {
	c := NewDense("", d.In, d.Out)
	c.Weight.Name = d.Weight.Name
	c.Bias.Name = d.Bias.Name
	c.Weight.W.CopyFrom(d.Weight.W)
	c.Bias.W.CopyFrom(d.Bias.W)
	return c
}

// Forward computes the layer output for batch x (rows are samples) and
// caches x for Backward; x must stay unchanged until then.
func (d *Dense) Forward(x *mat.Matrix) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense %q input width %d, want %d", d.Weight.Name, x.Cols, d.In))
	}
	d.lastX = x
	y := d.y.Reshape(x.Rows, d.Out)
	mat.MulInto(y, x, d.Weight.W)
	y.AddRowVec(d.Bias.W.Data)
	return y
}

// Backward accumulates parameter gradients from dout (∂L/∂Y) and returns
// ∂L/∂X. Forward must have been called first with the corresponding batch.
func (d *Dense) Backward(dout *mat.Matrix) *mat.Matrix {
	if d.lastX == nil {
		panic("nn: Dense.Backward before Forward")
	}
	// dW += Xᵀ·dout, through its own buffer: summing straight into G would
	// reorder the additions.
	dw := d.dw.Reshape(d.In, d.Out)
	mat.MulTransAInto(dw, d.lastX, dout)
	d.Weight.G.Add(dw)
	addColSums(d.Bias.G.Data, dout)
	return d.backwardInput(dout)
}

// backwardInput returns ∂L/∂X = dout·Wᵀ without touching the gradients.
func (d *Dense) backwardInput(dout *mat.Matrix) *mat.Matrix {
	dx := d.dx.Reshape(dout.Rows, d.In)
	mat.MulTransBInto(dx, dout, d.Weight.W)
	return dx
}

// addColSums adds the column sums of src to dst. Each column is summed from
// zero down its rows before the one add into dst, the order of
// dst += src.ColSums(), without the sums slice.
func addColSums(dst []float64, src *mat.Matrix) {
	cols := src.Cols
	for j := range dst[:cols] {
		var s float64
		for i := j; i < len(src.Data); i += cols {
			s += src.Data[i]
		}
		dst[j] += s
	}
}
