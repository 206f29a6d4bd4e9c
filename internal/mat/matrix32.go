package mat

import "fmt"

// Matrix32 is the float32 sibling of Matrix, used exclusively by the
// inference fast path (DESIGN.md §11). Training and the bitwise-
// deterministic float64 generation path never touch it: reduced precision
// is acceptable only where correctness is pinned distributionally (the
// conformance harness), not bitwise.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// Row returns a slice aliasing row i. Mutating it mutates the matrix.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element of m to 0.
func (m *Matrix32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulInto32 computes dst = a·b. dst must be a.Rows×b.Cols and must not
// alias a or b. Unlike the float64 MulInto it skips the zero-input
// shortcut: fast inference multiplies dense noise and dense hidden states
// where zeros are measure-zero, so the branch costs more than it saves.
// On amd64 CPUs with AVX2 and FMA it runs a fused multiply-add kernel
// (kernels_amd64.s), elsewhere the pure-Go mul32Go; the two round
// differently.
func MulInto32(dst, a, b *Matrix32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul32 inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Mul32 dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	kernels.mul32(dst, a, b)
}
