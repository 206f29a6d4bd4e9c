package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// FieldKind classifies one encoded field group in a generator's output.
type FieldKind int

// Field kinds. Continuous fields get a sigmoid (DoppelGANger's [0,1]
// normalization, per paper Appendix C); categorical groups get a softmax
// over their one-hot slice.
const (
	FieldContinuous FieldKind = iota
	FieldCategorical
)

// FieldSpec describes one group of adjacent output columns.
type FieldSpec struct {
	Name string
	Kind FieldKind
	Size int // number of columns; 1 for continuous scalars
}

// Width returns the total number of columns a schema occupies.
func Width(schema []FieldSpec) int {
	var w int
	for _, f := range schema {
		w += f.Size
	}
	return w
}

// OutputHead applies per-field activations to a generator's raw output:
// sigmoid to continuous columns, softmax within each categorical group.
// It is parameter-free but caches its output for the backward pass, and
// writes into buffers it owns: a returned matrix is valid until the head's
// next Forward or Backward.
type OutputHead struct {
	Schema []FieldSpec
	lastY  *mat.Matrix
	y, dx  mat.Matrix
}

// NewOutputHead returns a head for schema.
func NewOutputHead(schema []FieldSpec) *OutputHead {
	for _, f := range schema {
		if f.Size <= 0 {
			panic(fmt.Sprintf("nn: field %q has size %d", f.Name, f.Size))
		}
		if f.Kind == FieldCategorical && f.Size < 2 {
			panic(fmt.Sprintf("nn: categorical field %q needs size >= 2", f.Name))
		}
	}
	return &OutputHead{Schema: schema}
}

// Params implements Module.
func (h *OutputHead) Params() []*Param { return nil }

// Forward applies the per-field activations to a copy of x.
func (h *OutputHead) Forward(x *mat.Matrix) *mat.Matrix {
	y := h.y.Reshape(x.Rows, x.Cols)
	copy(y.Data, x.Data)
	ActivateRows(h.Schema, y.Data, y.Rows)
	h.lastY = y
	return y
}

// ActivateRows applies a schema's per-field activations in place to x, a
// row-major batch of rows rows: sigmoid on continuous columns, a
// numerically stable softmax within each categorical group. It is the
// allocation-free core of OutputHead.Forward, used directly by the
// generation pipeline on reusable scratch rows in either precision.
func ActivateRows[F Float](schema []FieldSpec, x []F, rows int) {
	w := Width(schema)
	if len(x) != rows*w {
		panic(fmt.Sprintf("nn: head input length %d, want %d rows of %d", len(x), rows, w))
	}
	lv := leavesOf[F]()
	for i := 0; i < rows; i++ {
		row := x[i*w : (i+1)*w]
		// Adjacent continuous fields form one run, activated in one call.
		run, col := 0, 0
		for _, f := range schema {
			if f.Kind != FieldContinuous {
				lv.sigmoid(row[run:col])
				run = col + f.Size
			}
			if f.Kind == FieldCategorical {
				seg := row[col : col+f.Size]
				mx := F(math.Inf(-1))
				for _, v := range seg {
					if v > mx {
						mx = v
					}
				}
				for j, v := range seg {
					seg[j] = v - mx
				}
				lv.exp(seg)
				var sum F
				for _, e := range seg {
					sum += e
				}
				for j := range seg {
					seg[j] /= sum
				}
			}
			col += f.Size
		}
		lv.sigmoid(row[run:])
	}
}

// Backward returns ∂L/∂X given dout = ∂L/∂Y. For softmax groups it applies
// the full softmax Jacobian; for sigmoid columns the elementwise derivative.
func (h *OutputHead) Backward(dout *mat.Matrix) *mat.Matrix {
	if h.lastY == nil {
		panic("nn: OutputHead.Backward before Forward")
	}
	y := h.lastY
	dx := h.dx.Reshape(dout.Rows, dout.Cols)
	copy(dx.Data, dout.Data)
	col := 0
	for _, f := range h.Schema {
		switch f.Kind {
		case FieldContinuous:
			for i := 0; i < y.Rows; i++ {
				yr, dr := y.Row(i), dx.Row(i)
				for j := col; j < col+f.Size; j++ {
					dr[j] *= yr[j] * (1 - yr[j])
				}
			}
		case FieldCategorical:
			for i := 0; i < y.Rows; i++ {
				yr := y.Row(i)[col : col+f.Size]
				dr := dx.Row(i)[col : col+f.Size]
				// dx_j = y_j * (dout_j - Σ_k dout_k y_k)
				var dot float64
				for k, v := range dr {
					dot += v * yr[k]
				}
				for j := range dr {
					dr[j] = yr[j] * (dr[j] - dot)
				}
			}
		}
		col += f.Size
	}
	return dx
}

// SampleRow converts one activated output row into a concrete float64
// sample written to dst, which must be as long as row: continuous columns
// pass through (widened from float32 rows, so fast-path samples flow
// through the same decode pipeline as reference samples); each categorical
// group becomes the one-hot of a draw from its softmax distribution,
// taking one uniform variate from u per group in schema order. The
// cumulative sum is float64 for both element types.
func SampleRow[F float32 | float64](dst []float64, schema []FieldSpec, row []F, u func() float64) {
	dst = dst[:len(row)]
	col := 0
	for _, f := range schema {
		switch f.Kind {
		case FieldContinuous:
			for j := col; j < col+f.Size; j++ {
				dst[j] = float64(row[j])
			}
		case FieldCategorical:
			probs := row[col : col+f.Size]
			target := u()
			var acc float64
			pick := len(probs) - 1
			for j, p := range probs {
				acc += float64(p)
				if target <= acc {
					pick = j
					break
				}
			}
			clear(dst[col : col+f.Size])
			dst[col+pick] = 1
		}
		col += f.Size
	}
}
