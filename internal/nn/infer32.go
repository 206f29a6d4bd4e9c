package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Float32 inference modules (DESIGN.md §11). These are one-way snapshots
// compressed from trained float64 modules: weights are narrowed once (the
// GRU from its packed FusedGRU form, three matmuls per step), and the
// saturating activations use a polynomial approximation instead of
// math.Tanh. Nothing here participates in training or in the bitwise-
// deterministic generation contract — the fast path's correctness is pinned
// distributionally by internal/conformance, not by golden bytes.

// Tanh32 approximates tanh with the 7th-order Lambert continued-fraction
// expansion, accurate to ~1e-6 over the unclamped range. Beyond |x| > 4.97
// it saturates to ±1 (true tanh is within 1e-4 of ±1 there), which also
// keeps the rational form from diverging for large inputs.
func Tanh32(x float32) float32 {
	if x > 4.97 {
		return 1
	}
	if x < -4.97 {
		return -1
	}
	x2 := x * x
	p := x * (135135 + x2*(17325+x2*(378+x2)))
	q := 135135 + x2*(62370+x2*(3150+28*x2))
	return p / q
}

// Sigmoid32 is the logistic function via its tanh identity, inheriting
// Tanh32's accuracy.
func Sigmoid32(x float32) float32 {
	return 0.5 + 0.5*Tanh32(0.5*x)
}

func applyActKind32(kind ActKind, x *mat.Matrix32) {
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
			x.Data[i] = Tanh32(v)
		}
	case Sigmoid:
		for i, v := range x.Data {
			x.Data[i] = Sigmoid32(v)
		}
	case Identity:
		// no-op
	}
}

// Dense32 is a float32 affine layer, Y = X·W + b.
type Dense32 struct {
	In, Out int
	W       *mat.Matrix32
	B       []float32
}

// NewDense32 narrows a float64 weight matrix and bias vector.
func NewDense32(w *mat.Matrix, b []float64) *Dense32 {
	d := &Dense32{In: w.Rows, Out: w.Cols, W: mat.Compress32(w), B: make([]float32, len(b))}
	for i, v := range b {
		d.B[i] = float32(v)
	}
	return d
}

// InferInto computes dst = x·W + b; dst must be x.Rows×Out.
func (d *Dense32) InferInto(x, dst *mat.Matrix32) {
	mat.MulInto32(dst, x, d.W)
	dst.AddRowVec(d.B)
}

// CompressTimeDense snapshots a TimeDense projection as a Dense32 (the
// projection is the same affine map at every timestep).
func CompressTimeDense(d *TimeDense) *Dense32 {
	return NewDense32(d.Weight.W, d.Bias.W.Data)
}

// MLP32 is a float32 snapshot of an MLP for inference.
type MLP32 struct {
	Layers []*Dense32
	Acts   []ActKind
}

// CompressMLP narrows every layer of a trained MLP.
func CompressMLP(m *MLP) *MLP32 {
	out := &MLP32{}
	for i, l := range m.layers {
		out.Layers = append(out.Layers, NewDense32(l.Weight.W, l.Bias.W.Data))
		out.Acts = append(out.Acts, m.acts[i].Kind)
	}
	return out
}

// MLP32Scratch holds per-layer output buffers for MLP32.InferInto; the
// zero value is ready to use.
type MLP32Scratch struct {
	bufs []mat.Matrix32
}

// InferInto runs the batch through the MLP using sc's buffers, returning
// the last one (valid until the next call with the same scratch).
func (m *MLP32) InferInto(x *mat.Matrix32, sc *MLP32Scratch) *mat.Matrix32 {
	if len(sc.bufs) < len(m.Layers) {
		sc.bufs = make([]mat.Matrix32, len(m.Layers))
	}
	h := x
	for i, l := range m.Layers {
		y := sc.bufs[i].Reshape(h.Rows, l.Out)
		l.InferInto(h, y)
		applyActKind32(m.Acts[i], y)
		h = y
	}
	return h
}

// FusedGRU32 is the float32 narrowing of a FusedGRU: the same packed
// layout (Wg columns [Wz | Wr | Wh], Uzr columns [Uz | Ur]), three matmuls
// per step.
type FusedGRU32 struct {
	In, Hidden  int
	Wg, Uzr, Uh *mat.Matrix32
	Bz, Br, Bh  []float32
}

// CompressGRU narrows a packed GRU's weights.
func CompressGRU(f *FusedGRU) *FusedGRU32 {
	return &FusedGRU32{
		In: f.In, Hidden: f.Hidden,
		Wg:  mat.Compress32(f.Wg),
		Uzr: mat.Compress32(f.Uzr),
		Uh:  mat.Compress32(f.Uh),
		Bz:  narrow32(f.Bz),
		Br:  narrow32(f.Br),
		Bh:  narrow32(f.Bh),
	}
}

func narrow32(xs []float64) []float32 {
	out := make([]float32, len(xs))
	for i, v := range xs {
		out[i] = float32(v)
	}
	return out
}

// FusedGRU32Scratch holds the fused step's intermediates; the zero value is
// ready to use.
type FusedGRU32Scratch struct {
	g, hu, rh, hc mat.Matrix32
}

// StepInfer advances the GRU one timestep: reads x and h, writes hNext.
// hNext must not alias x or h. The gate math matches FusedGRU.StepInfer up
// to float32 rounding and the Tanh32/Sigmoid32 approximations.
func (f *FusedGRU32) StepInfer(x, h, hNext *mat.Matrix32, sc *FusedGRU32Scratch) {
	if x.Rows != h.Rows || hNext.Rows != h.Rows || h.Cols != f.Hidden || hNext.Cols != f.Hidden {
		panic(fmt.Sprintf("nn: StepInfer32 shapes x=%dx%d h=%dx%d hNext=%dx%d",
			x.Rows, x.Cols, h.Rows, h.Cols, hNext.Rows, hNext.Cols))
	}
	rows, hid := h.Rows, f.Hidden
	g, hu := sc.g.Reshape(rows, 3*hid), sc.hu.Reshape(rows, 2*hid)
	rh, hc := sc.rh.Reshape(rows, hid), sc.hc.Reshape(rows, hid)
	mat.MulInto32(g, x, f.Wg)
	mat.MulInto32(hu, h, f.Uzr)
	for i := 0; i < rows; i++ {
		gr, hr, hrow, rhr := g.Row(i), hu.Row(i), h.Row(i), rh.Row(i)
		for j := 0; j < hid; j++ {
			// z is stored back into the g buffer's z block for the blend below.
			gr[j] = Sigmoid32(gr[j] + hr[j] + f.Bz[j])
			r := Sigmoid32(gr[hid+j] + hr[hid+j] + f.Br[j])
			rhr[j] = r * hrow[j]
		}
	}
	mat.MulInto32(hc, rh, f.Uh)
	for i := 0; i < rows; i++ {
		gr, hcr, hrow, next := g.Row(i), hc.Row(i), h.Row(i), hNext.Row(i)
		for j := 0; j < hid; j++ {
			z := gr[j]
			cand := Tanh32(gr[2*hid+j] + hcr[j] + f.Bh[j])
			next[j] = (1-z)*hrow[j] + z*cand
		}
	}
}

// ActivateRows32 applies a schema's per-field activations in place:
// Sigmoid32 on continuous columns, softmax within each categorical group.
func ActivateRows32(schema []FieldSpec, x *mat.Matrix32) {
	if x.Cols != Width(schema) {
		panic(fmt.Sprintf("nn: head input width %d, want %d", x.Cols, Width(schema)))
	}
	col := 0
	for _, f := range schema {
		switch f.Kind {
		case FieldContinuous:
			for i := 0; i < x.Rows; i++ {
				row := x.Row(i)
				for j := col; j < col+f.Size; j++ {
					row[j] = Sigmoid32(row[j])
				}
			}
		case FieldCategorical:
			for i := 0; i < x.Rows; i++ {
				seg := x.Row(i)[col : col+f.Size]
				mx := seg[0]
				for _, v := range seg[1:] {
					if v > mx {
						mx = v
					}
				}
				var sum float32
				for j, v := range seg {
					e := float32(math.Exp(float64(v - mx)))
					seg[j] = e
					sum += e
				}
				inv := 1 / sum
				for j := range seg {
					seg[j] *= inv
				}
			}
		}
		col += f.Size
	}
}
