package nn

import "repro/internal/mat"

// TimeDense applies one shared Dense transformation to every timestep of a
// sequence, accumulating weight gradients across steps on Backward — the
// standard "time distributed" output projection of a recurrent generator.
// Its outputs live in per-step buffers it owns, valid until its next
// Forward or Backward.
type TimeDense struct {
	In, Out int
	Weight  *Param
	Bias    *Param

	xs      []*mat.Matrix // cached per-step inputs
	ys, dxs []mat.Matrix  // per-step output and input-gradient buffers
	out     []*mat.Matrix // the slices Forward and Backward return
	dxOut   []*mat.Matrix
	dw      mat.Matrix
}

// NewTimeDense returns a TimeDense layer with zero weights.
func NewTimeDense(name string, in, out int) *TimeDense {
	return &TimeDense{
		In: in, Out: out,
		Weight: NewParam(name+".w", in, out),
		Bias:   NewParam(name+".b", 1, out),
	}
}

// Params implements Module.
func (d *TimeDense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Forward applies the projection to each timestep. The inputs must stay
// unchanged until the matching Backward.
func (d *TimeDense) Forward(xs []*mat.Matrix) []*mat.Matrix {
	d.xs = append(d.xs[:0], xs...)
	d.ys = growMats(d.ys, len(xs))
	d.out = d.out[:0]
	for t, x := range xs {
		y := d.ys[t].Reshape(x.Rows, d.Out)
		mat.MulInto(y, x, d.Weight.W)
		y.AddRowVec(d.Bias.W.Data)
		d.out = append(d.out, y)
	}
	return d.out
}

// Backward accumulates gradients from every timestep and returns per-step
// input gradients. Entries of douts may be nil (no gradient at that step).
func (d *TimeDense) Backward(douts []*mat.Matrix) []*mat.Matrix {
	if len(douts) != len(d.xs) {
		panic("nn: TimeDense.Backward step count mismatch")
	}
	d.dxs = growMats(d.dxs, len(douts))
	d.dxOut = d.dxOut[:0]
	for t, dout := range douts {
		if dout == nil {
			d.dxOut = append(d.dxOut, nil)
			continue
		}
		dw := d.dw.Reshape(d.In, d.Out)
		mat.MulTransAInto(dw, d.xs[t], dout)
		d.Weight.G.Add(dw)
		addColSums(d.Bias.G.Data, dout)
		dx := d.dxs[t].Reshape(dout.Rows, d.In)
		mat.MulTransBInto(dx, dout, d.Weight.W)
		d.dxOut = append(d.dxOut, dx)
	}
	return d.dxOut
}

// growMats returns bufs extended to at least n matrices, keeping the
// existing buffers.
func growMats(bufs []mat.Matrix, n int) []mat.Matrix {
	if len(bufs) < n {
		bufs = append(bufs, make([]mat.Matrix, n-len(bufs))...)
	}
	return bufs
}
