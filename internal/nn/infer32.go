package nn

import (
	"math"

	"repro/internal/mat"
)

// The float32 leaves and weight narrowing of the inference modules
// (DESIGN.md §11). A float32 instance is a one-way snapshot narrowed from a
// trained float64 one: the same modules and the same arithmetic, but the
// products run on mat.MulInto32 and the saturating activations use a
// polynomial approximation instead of math.Tanh. Nothing here participates
// in training or in the bitwise-deterministic generation contract — the
// fast path's correctness is pinned distributionally by internal/conformance,
// not by golden bytes.

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

var leaves32 = leaves[float32]{
	mul: func(dst, a, b *matrix[float32]) {
		mat.MulInto32((*mat.Matrix32)(dst), (*mat.Matrix32)(a), (*mat.Matrix32)(b))
	},
	sigmoid: func(row []float32) {
		for i, v := range row {
			row[i] = Sigmoid32(v)
		}
	},
	tanh: func(row []float32) {
		for i, v := range row {
			row[i] = Tanh32(v)
		}
	},
	exp: func(row []float32) {
		for i, v := range row {
			row[i] = float32(math.Exp(float64(v)))
		}
	},
}

// Narrow returns the float32 snapshot of a float64 inference module. Only
// the weights are narrowed; the layer structure and activations are kept.
func (l *Layers[F]) Narrow() *Layers[float32] {
	out := &Layers[float32]{layers: make([]layer[float32], len(l.layers))}
	for i, ly := range l.layers {
		out.layers[i] = layer[float32]{w: narrow(ly.w), b: narrowVec(ly.b), act: ly.act}
	}
	return out
}

// Narrow returns the float32 snapshot of the packed GRU: the same layout
// (Wg columns [Wz | Wr | Wh], Uzr columns [Uz | Ur]), three matmuls per
// step.
func (f *FusedGRU[F]) Narrow() *FusedGRU[float32] {
	return &FusedGRU[float32]{
		In: f.In, Hidden: f.Hidden,
		wg: narrow(f.wg), uzr: narrow(f.uzr), uh: narrow(f.uh),
		bz: narrowVec(f.bz), br: narrowVec(f.br), bh: narrowVec(f.bh),
	}
}

// narrow converts a weight matrix to float32. Values outside float32
// range saturate to ±Inf; trained GAN weights are far inside it.
func narrow[F Float](m *matrix[F]) *matrix[float32] {
	return &matrix[float32]{Rows: m.Rows, Cols: m.Cols, Data: narrowVec(m.Data)}
}

func narrowVec[F Float](xs []F) []float32 {
	out := make([]float32, len(xs))
	for i, v := range xs {
		out[i] = float32(v)
	}
	return out
}
