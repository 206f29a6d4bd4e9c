package nn

import (
	"fmt"

	"repro/internal/mat"
)

// Inference-only forward passes with caller-owned scratch, written once for
// both precisions. The training Forward methods cache activations for
// Backward in buffers the module owns, so one module serves one pass at a
// time; the generation hot path needs no caches, so these modules write
// into caller-owned scratch and never touch a training module's state.
// They read parameters only, so distinct scratch holders may drive the
// same module from concurrent goroutines.
//
// Each module is generic over its element type. The float64 instances
// (MLP.Infer, TimeDense.Infer, FuseGRU) alias or pack the live training
// weights and are bitwise equal to the training forwards; the float32
// instances are one-way narrowings of them for the serving fast path
// (infer32.go). What differs between the two is only the per-precision
// leaves table below: the matmul kernel and the row-wise sigmoid, tanh and
// exp.

// Float is the element type of the inference modules.
type Float interface{ float32 | float64 }

// leaves is one element type's arithmetic: everything the inference
// modules do not share between precisions. Each function runs once per
// matrix or row, never per element. Both tables are internal/mat's kernel
// set entries: the float64 leaves compute what math.Exp, math.Tanh and
// the logistic function compute, bit for bit, and the float32 ones mat's
// float32 approximations (infer32.go).
type leaves[F Float] struct {
	mul                      func(dst, a, b *matrix[F]) // dst = a·b
	sigmoid, tanh, exp, relu func(row []F)              // in place
	leakyRelu                func(row []F, slope F)     // in place
}

var leaves64 = leaves[float64]{
	mul: func(dst, a, b *matrix[float64]) {
		mat.MulInto((*mat.Matrix)(dst), (*mat.Matrix)(a), (*mat.Matrix)(b))
	},
	sigmoid:   mat.Sigmoid,
	tanh:      mat.Tanh,
	exp:       mat.Exp,
	relu:      mat.ReLU,
	leakyRelu: mat.LeakyReLU,
}

// leavesOf returns F's leaves table.
func leavesOf[F Float]() *leaves[F] {
	if l, ok := any(&leaves64).(*leaves[F]); ok {
		return l
	}
	return any(&leaves32).(*leaves[F])
}

// matrix is the row-major header mat.Matrix and mat.Matrix32 share, over
// either element type. Its fields are theirs, name for name, so the mul
// leaves hand it to the mat kernels by pointer conversion and the float64
// modules alias live weights through it without copying. The kernels are called through
// function values, so every header they see must already live on the heap:
// the modules keep their operands' headers in their scratch.
type matrix[F Float] struct {
	Rows, Cols int
	Data       []F
}

func (m *matrix[F]) row(i int) []F { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// view points m at data as a rows×cols matrix and returns it.
func (m *matrix[F]) view(data []F, rows, cols int) *matrix[F] {
	*m = matrix[F]{Rows: rows, Cols: cols, Data: data}
	return m
}

// reshape makes scratch matrix m rows×cols, growing its storage only when
// it is too small, and returns m. The contents are undefined.
func (m *matrix[F]) reshape(rows, cols int) *matrix[F] {
	if cap(m.Data) < rows*cols {
		m.Data = make([]F, rows*cols)
	}
	return m.view(m.Data[:rows*cols], rows, cols)
}

// applyActKind applies the activation elementwise to x in place.
func applyActKind[F Float](kind ActKind, x []F) {
	switch kind {
	case ReLU:
		leavesOf[F]().relu(x)
	case LeakyReLU:
		leavesOf[F]().leakyRelu(x, leakySlope)
	case Tanh:
		leavesOf[F]().tanh(x)
	case Sigmoid:
		leavesOf[F]().sigmoid(x)
	case Identity:
		// no-op
	}
}

// layer is one affine map y = x·W + b followed by its activation.
type layer[F Float] struct {
	w   *matrix[F]
	b   []F
	act ActKind
}

// Layers is the inference form of an MLP or of a TimeDense projection (one
// Identity layer, the same affine map at every timestep).
type Layers[F Float] struct {
	layers []layer[F]
}

// Infer returns m's float64 inference form. It aliases m's weights: it is
// a view of the parameters, not a copy to keep across training steps.
func (m *MLP) Infer() *Layers[float64] {
	out := &Layers[float64]{layers: make([]layer[float64], len(m.layers))}
	for i, l := range m.layers {
		out.layers[i] = denseLayer(l.Weight, l.Bias, m.acts[i].kind)
	}
	return out
}

// Infer returns the projection's float64 inference form, aliasing its
// weights like MLP.Infer.
func (d *TimeDense) Infer() *Layers[float64] {
	return &Layers[float64]{layers: []layer[float64]{denseLayer(d.Weight, d.Bias, Identity)}}
}

func denseLayer(w, b *Param, act ActKind) layer[float64] {
	return layer[float64]{w: (*matrix[float64])(w.W), b: b.W.Data, act: act}
}

// LayersScratch holds one output buffer per layer and the input's header
// for Layers.InferInto. The zero value is ready to use; buffers are sized
// (and re-sized) on demand and reused across calls.
type LayersScratch[F Float] struct {
	in   matrix[F]
	bufs []matrix[F]
}

// InferInto runs the rows-row batch x through the layers using sc's
// buffers and returns the last one, valid until the next InferInto with
// the same scratch.
func (l *Layers[F]) InferInto(x []F, rows int, sc *LayersScratch[F]) []F {
	if len(x) != rows*l.layers[0].w.Rows {
		panic(fmt.Sprintf("nn: InferInto input length %d, want %d rows of %d", len(x), rows, l.layers[0].w.Rows))
	}
	if len(sc.bufs) < len(l.layers) {
		sc.bufs = make([]matrix[F], len(l.layers))
	}
	mul := leavesOf[F]().mul
	h := sc.in.view(x, rows, l.layers[0].w.Rows)
	for i, ly := range l.layers {
		y := sc.bufs[i].reshape(rows, ly.w.Cols)
		mul(y, h, ly.w)
		for r := 0; r < rows; r++ {
			row := y.row(r)
			for j, bj := range ly.b[:len(row)] {
				row[j] += bj
			}
		}
		applyActKind(ly.act, y.Data)
		h = y
	}
	return h.Data
}

// FusedGRU is a GRU's weights packed for inference: the three input
// projections share one In×3H matrix (column blocks z|r|ĥ) and the z/r
// recurrent projections one H×2H matrix, so a step costs three matmuls —
// x·Wg, h·Uzr, (r⊙h)·Uh — instead of six per-gate products. Every output
// element of a packed product accumulates the same terms in the same order
// as its per-gate product, and each gate adds (x·W + h·U) + b, so the
// float64 StepInfer is bitwise equal to the unfused step. GRU.Forward
// trains through it.
type FusedGRU[F Float] struct {
	In, Hidden  int
	wg, uzr, uh *matrix[F]
	bz, br, bh  []F
}

// FuseGRU packs g's gate weights into the float64 instance. Uh and the
// biases alias the GRU's parameters: it is a view of the weights at the
// time it was packed, not a cache to keep across training steps.
func FuseGRU(g *GRU) *FusedGRU[float64] {
	f := new(FusedGRU[float64])
	packGRU(f, g)
	return f
}

// packGRU copies g's gate weights into f's packed buffers, allocating them
// only when f has none, and aliases Uh and the biases. GRU.Forward repacks
// its own instance this way on every call.
func packGRU(f *FusedGRU[float64], g *GRU) {
	in, hid := g.In, g.Hidden
	f.In, f.Hidden = in, hid
	if f.wg == nil {
		f.wg, f.uzr = new(matrix[float64]), new(matrix[float64])
	}
	packCols(f.wg.reshape(in, 3*hid), g.Wz.W, g.Wr.W, g.Wh.W)
	packCols(f.uzr.reshape(hid, 2*hid), g.Uz.W, g.Ur.W)
	f.uh = (*matrix[float64])(g.Uh.W)
	f.bz, f.br, f.bh = g.Bz.W.Data, g.Br.W.Data, g.Bh.W.Data
}

// packCols writes srcs side by side into dst's column blocks.
func packCols(dst *matrix[float64], srcs ...*mat.Matrix) {
	for i := 0; i < dst.Rows; i++ {
		row := dst.row(i)
		off := 0
		for _, src := range srcs {
			off += copy(row[off:], src.Row(i))
		}
	}
}

// FusedGRUScratch holds the fused step's operand headers and
// intermediates; the zero value is ready to use.
type FusedGRUScratch[F Float] struct {
	x, h, g, hu, rh, hc matrix[F]
}

// StepInfer advances the GRU one timestep on rows rows without caching: it
// reads x and h, writes the next hidden state into hNext, and keeps all
// intermediates in sc. hNext must not alias x or h. Each row depends only
// on the same row of x and h, so a caller may drop rows between steps.
func (f *FusedGRU[F]) StepInfer(x, h, hNext []F, rows int, sc *FusedGRUScratch[F]) {
	hid := f.Hidden
	if len(x) != rows*f.In || len(h) != rows*hid || len(hNext) != rows*hid {
		panic(fmt.Sprintf("nn: StepInfer lengths x=%d h=%d hNext=%d, want %d rows of %d and %d",
			len(x), len(h), len(hNext), rows, f.In, hid))
	}
	lv := leavesOf[F]()
	g, hu := sc.g.reshape(rows, 3*hid), sc.hu.reshape(rows, 2*hid)
	rh, hc := sc.rh.reshape(rows, hid), sc.hc.reshape(rows, hid)
	hm := sc.h.view(h, rows, hid)
	lv.mul(g, sc.x.view(x, rows, f.In), f.wg)
	lv.mul(hu, hm, f.uzr)
	// Every operand is sliced to hid elements so the compiler proves the
	// element loops in bounds and drops their per-element checks.
	bz, br, bh := f.bz[:hid], f.br[:hid], f.bh[:hid]
	for i := 0; i < rows; i++ {
		gr, hr := g.row(i), hu.row(i)
		// The z and r gates are activated in place in g's z|r blocks; z
		// stays there for the blend below.
		z, r := gr[:hid], gr[hid:][:hid]
		hz, hrr := hr[:hid], hr[hid:][:hid]
		for j := range z {
			z[j] = z[j] + hz[j] + bz[j]
			r[j] = r[j] + hrr[j] + br[j]
		}
		lv.sigmoid(gr[:2*hid])
		hrow, rhr := hm.row(i)[:hid], rh.row(i)[:hid]
		for j := range r {
			rhr[j] = hrow[j] * r[j]
		}
	}
	lv.mul(hc, rh, f.uh)
	for i := 0; i < rows; i++ {
		gr := g.row(i)
		z, cand := gr[:hid], gr[2*hid:][:hid]
		hcr, hrow, next := hc.row(i)[:hid], hm.row(i)[:hid], hNext[i*hid:][:hid]
		for j := range cand {
			cand[j] = cand[j] + hcr[j] + bh[j]
		}
		lv.tanh(cand)
		for j, zj := range z {
			next[j] = (1-zj)*hrow[j] + zj*cand[j]
		}
	}
}
