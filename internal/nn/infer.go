package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Inference-only forward passes with caller-owned scratch. The training
// Forward methods cache activations for Backward and allocate fresh
// matrices on every call; the generation hot path needs neither, so these
// variants write into reusable buffers and never touch the module's caches.
// They read parameters only, so distinct scratch holders may drive the same
// module from concurrent goroutines.

// applyActKind applies the activation elementwise in place.
func applyActKind(kind ActKind, x *mat.Matrix) {
	switch kind {
	case ReLU:
		for i, v := range x.Data {
			if v < 0 {
				x.Data[i] = 0
			}
		}
	case LeakyReLU:
		for i, v := range x.Data {
			if v < 0 {
				x.Data[i] = leakySlope * v
			}
		}
	case Tanh:
		for i, v := range x.Data {
			x.Data[i] = math.Tanh(v)
		}
	case Sigmoid:
		for i, v := range x.Data {
			x.Data[i] = sigmoid(v)
		}
	case Identity:
		// no-op
	}
}

// MLPScratch holds one per-layer output buffer for MLP.InferInto. The zero
// value is ready to use; buffers are sized (and re-sized) on demand and
// reused across calls.
type MLPScratch struct {
	bufs []mat.Matrix
}

// InferInto runs the batch x through the MLP using sc's buffers, returning
// the last one. Unlike Forward it caches nothing, so Backward must not be
// called after it; the returned matrix is valid until the next InferInto
// with the same scratch.
func (m *MLP) InferInto(x *mat.Matrix, sc *MLPScratch) *mat.Matrix {
	if len(sc.bufs) < len(m.layers) {
		sc.bufs = make([]mat.Matrix, len(m.layers))
	}
	h := x
	for i, l := range m.layers {
		y := sc.bufs[i].Reshape(h.Rows, l.Out)
		mat.MulInto(y, h, l.Weight.W)
		y.AddRowVec(l.Bias.W.Data)
		applyActKind(m.acts[i].Kind, y)
		h = y
	}
	return h
}

// FusedGRU is a GRU's weights packed for inference: the three input
// projections share one In×3H matrix (column blocks z|r|ĥ) and the z/r
// recurrent projections one H×2H matrix, so a step costs three matmuls —
// x·Wg, h·Uzr, (r⊙h)·Uh — instead of GRU.Step's six. Every output element
// of a packed product accumulates the same terms in the same order as its
// per-gate product, and each gate adds (x·W + h·U) + b as Step does, so
// StepInfer is bitwise equal to Step. Uh and the biases alias the GRU's
// parameters: a FusedGRU is a view of the weights at the time it was
// packed, not a cache to keep across training steps.
type FusedGRU struct {
	In, Hidden  int
	Wg, Uzr, Uh *mat.Matrix
	Bz, Br, Bh  []float64
}

// FuseGRU packs g's gate weights.
func FuseGRU(g *GRU) *FusedGRU {
	in, hid := g.In, g.Hidden
	f := &FusedGRU{
		In: in, Hidden: hid,
		Wg:  mat.New(in, 3*hid),
		Uzr: mat.New(hid, 2*hid),
		Uh:  g.Uh.W,
		Bz:  g.Bz.W.Data, Br: g.Br.W.Data, Bh: g.Bh.W.Data,
	}
	packCols(f.Wg, g.Wz.W, g.Wr.W, g.Wh.W)
	packCols(f.Uzr, g.Uz.W, g.Ur.W)
	return f
}

// packCols writes srcs side by side into dst's column blocks.
func packCols(dst *mat.Matrix, srcs ...*mat.Matrix) {
	for i := 0; i < dst.Rows; i++ {
		row := dst.Row(i)
		off := 0
		for _, src := range srcs {
			off += copy(row[off:], src.Row(i))
		}
	}
}

// FusedGRUScratch holds the fused step's intermediates; the zero value is
// ready to use.
type FusedGRUScratch struct {
	g, hu, rh, hc mat.Matrix
}

// StepInfer advances the GRU one timestep without caching: it reads x and
// h, writes the next hidden state into hNext, and keeps all intermediates
// in sc. hNext must not alias x or h. Each row depends only on the same
// row of x and h, so a caller may drop rows between steps.
func (f *FusedGRU) StepInfer(x, h, hNext *mat.Matrix, sc *FusedGRUScratch) {
	if x.Rows != h.Rows || hNext.Rows != h.Rows || h.Cols != f.Hidden || hNext.Cols != f.Hidden {
		panic(fmt.Sprintf("nn: StepInfer shapes x=%dx%d h=%dx%d hNext=%dx%d",
			x.Rows, x.Cols, h.Rows, h.Cols, hNext.Rows, hNext.Cols))
	}
	rows, hid := h.Rows, f.Hidden
	g, hu := sc.g.Reshape(rows, 3*hid), sc.hu.Reshape(rows, 2*hid)
	rh, hc := sc.rh.Reshape(rows, hid), sc.hc.Reshape(rows, hid)
	mat.MulInto(g, x, f.Wg)
	mat.MulInto(hu, h, f.Uzr)
	for i := 0; i < rows; i++ {
		gr, hr, hrow, rhr := g.Row(i), hu.Row(i), h.Row(i), rh.Row(i)
		for j := 0; j < hid; j++ {
			// z is stored back into g's z block for the blend below.
			gr[j] = sigmoid(gr[j] + hr[j] + f.Bz[j])
			rhr[j] = hrow[j] * sigmoid(gr[hid+j]+hr[hid+j]+f.Br[j])
		}
	}
	mat.MulInto(hc, rh, f.Uh)
	for i := 0; i < rows; i++ {
		gr, hcr, hrow, next := g.Row(i), hc.Row(i), h.Row(i), hNext.Row(i)
		for j := 0; j < hid; j++ {
			z := gr[j]
			next[j] = (1-z)*hrow[j] + z*math.Tanh(gr[2*hid+j]+hcr[j]+f.Bh[j])
		}
	}
}

// InferStepInto applies the shared projection to one timestep, writing into
// dst (x.Rows×Out) without caching the input for Backward.
func (d *TimeDense) InferStepInto(x, dst *mat.Matrix) {
	mat.MulInto(dst, x, d.Weight.W)
	dst.AddRowVec(d.Bias.W.Data)
}
