package nn

import "repro/internal/mat"

// The float32 leaves and weight narrowing of the inference modules
// (DESIGN.md §11). A float32 instance is a one-way snapshot narrowed from a
// trained float64 one: the same modules and the same arithmetic, but the
// products run on mat.MulInto32 and the activations on mat's float32 row
// leaves — a rational tanh approximation (sigmoid through its tanh
// identity) and a range-reduced polynomial exp — instead of math.Tanh and
// math.Exp. Nothing here participates in training or in the
// bitwise-deterministic generation contract — the fast path's correctness
// is pinned distributionally by internal/conformance, not by golden bytes.

var leaves32 = leaves[float32]{
	mul: func(dst, a, b *matrix[float32]) {
		mat.MulInto32((*mat.Matrix32)(dst), (*mat.Matrix32)(a), (*mat.Matrix32)(b))
	},
	sigmoid:   mat.Sigmoid32,
	tanh:      mat.Tanh32,
	exp:       mat.Exp32,
	relu:      mat.ReLU32,
	leakyRelu: mat.LeakyReLU32,
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
