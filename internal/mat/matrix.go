// Package mat provides the dense float64 matrix and vector arithmetic that
// underpins the neural-network stack. It is deliberately small: row-major
// matrices, the handful of BLAS-like kernels the GAN training loops need,
// and nothing else. All operations are deterministic given a seeded
// rand.Rand, so experiments are reproducible.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty matrix; use New or NewFrom to create a usable
// one. Methods that return a Matrix allocate a fresh result unless their
// documentation says otherwise.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero-initialized rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewFrom returns a rows×cols matrix backed by a copy of data.
func NewFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i. Mutating it mutates the matrix.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return NewFrom(m.Rows, m.Cols, m.Data)
}

// Reshape makes scratch matrix m rows×cols, growing its storage only when
// it is too small, and returns m. The contents are undefined. Scratch
// holders keep Matrix values and reshape them in place, so resizing a
// buffer per call allocates no header.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if cap(m.Data) < rows*cols {
		m.Data = make([]float64, rows*cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// CopyFrom copies src's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// RandNorm fills m with N(0, std²) samples from r.
func (m *Matrix) RandNorm(r *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = r.NormFloat64() * std
	}
}

// Xavier fills m with the Glorot-uniform initialization for a layer with
// fanIn inputs and fanOut outputs.
func (m *Matrix) Xavier(r *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (r.Float64()*2 - 1) * limit
	}
}

// MulInto computes dst = a·b. dst must be a.Rows×b.Cols and must not alias
// a or b. It panics on shape mismatch.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Mul dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	kernels.mulRows(dst, a, b, 0, a.Rows)
}

// MulTransAInto computes dst = aᵀ·b without materializing aᵀ.
func MulTransAInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulTransA inner dims %d != %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTransA dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	kernels.mulTransARows(dst, a, b, 0, dst.Rows)
}

// MulTransBInto computes dst = a·bᵀ. Only kernel sets that vectorize
// across output columns materialize bᵀ, in pooled scratch, once per call.
func MulTransBInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTransB inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTransB dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if pack := kernels.packB; pack != nil {
		bt := packPool.Get().(*Matrix)
		defer packPool.Put(bt)
		bt.Reshape(b.Cols, b.Rows)
		pack(bt, b)
		b = bt
	}
	kernels.mulTransBRows(dst, a, b, 0, a.Rows)
}

// NearestRows is the nearest-word decode: for each row q_i of q it sets
// pick[i] to the index j of the row of w closest to q_i, as the argmin of
// sq[j] − 2·(w_j·q_i), where sq[j] must be ‖w_j‖² (‖q_i‖² is the same for
// every j, so it cannot change the argmin). Ties go to the lowest j, and a
// query whose distances are all NaN or +Inf picks 0. Every kernel set
// picks the same rows. pick must have q.Rows entries; a call allocates
// nothing once its pooled scratch has grown to the batch.
func NearestRows(pick []int, q, w *Matrix, sq []float64) {
	if q.Cols != w.Cols {
		panic(fmt.Sprintf("mat: NearestRows query dim %d, word dim %d", q.Cols, w.Cols))
	}
	if len(sq) != w.Rows || len(pick) != q.Rows {
		panic(fmt.Sprintf("mat: NearestRows %d norms for %d words, %d picks for %d queries",
			len(sq), w.Rows, len(pick), q.Rows))
	}
	best := distPool.Get().(*Matrix)
	kernels.nearest(pick, best.Reshape(1, q.Rows).Data, q, w, sq)
	distPool.Put(best)
}

// Add computes m += other, element-wise.
func (m *Matrix) Add(other *Matrix) {
	m.assertSameShape(other, "Add")
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// Sub computes m -= other, element-wise.
func (m *Matrix) Sub(other *Matrix) {
	m.assertSameShape(other, "Sub")
	for i, v := range other.Data {
		m.Data[i] -= v
	}
}

// Scale multiplies every element of m by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled computes m += s*other.
func (m *Matrix) AddScaled(other *Matrix, s float64) {
	m.assertSameShape(other, "AddScaled")
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
}

// AddRowVec adds the 1×Cols vector v to every row of m (bias broadcast).
func (m *Matrix) AddRowVec(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVec len %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

func (m *Matrix) assertSameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

// VecNorm returns the L2 norm of v.
func VecNorm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
