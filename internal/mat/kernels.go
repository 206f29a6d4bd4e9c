package mat

import (
	"sync"

	"repro/internal/telemetry"
)

// kernelSet is one implementation of the three float64 matmul row
// kernels. Each computes dst rows [lo, hi) of its product; MulInto and
// MulTransAInto zero dst first and the kernels accumulate into it, while
// mulTransBRows overwrites its rows. Every set must produce the same bits
// as goKernels for every input, except that a NaN may carry another
// payload (see sameBits in the tests). So every output element
// accumulates over k in ascending order from +0 with one rounded multiply
// and one rounded add per step (never a fused multiply-add), and mulRows
// and mulTransARows skip every k whose a element is ±0. Because an
// element's value never depends on the row split, serial and parallel
// calls are bitwise identical.
type kernelSet struct {
	name                                  string
	mulRows, mulTransARows, mulTransBRows func(dst, a, b *Matrix, lo, hi int)
	// packB, when set, writes bᵀ into a b.Cols×b.Rows scratch matrix;
	// MulTransBInto then passes mulTransBRows that bᵀ in place of b.
	packB func(bt, b *Matrix)
}

// goKernels is the pure-Go reference: the fallback on CPUs without an
// assembly implementation and the oracle the assembly kernels are tested
// against bit for bit.
var goKernels = kernelSet{"go", mulRowsGo, mulTransARowsGo, mulTransBRowsGo, nil}

// packPool recycles the scratch matrices packB fills, so steady-state
// training allocates none.
var packPool = sync.Pool{New: func() any { return new(Matrix) }}

// reshape makes scratch matrix m rows×cols, growing its storage only when
// it is too small. The contents are undefined.
func (m *Matrix) reshape(rows, cols int) {
	if cap(m.Data) < rows*cols {
		m.Data = make([]float64, rows*cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
}

// kernels is the set MulInto, MulTransAInto and MulTransBInto run. It is
// chosen once at package init from the CPU (archKernels) and reported by
// the mat.kernel.avx2 gauge, so a metrics dump shows which kernels
// produced its numbers.
var kernels = goKernels

func init() {
	avx2 := 0.0
	if k, ok := archKernels(); ok {
		kernels = k
		avx2 = 1
	}
	telemetry.Default.Gauge("mat.kernel.avx2").Set(avx2)
}

// mulRowsGo computes dst rows [lo, hi) of a·b with the ikj loop order:
// it streams through b and dst rows sequentially.
func mulRowsGo(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			axpy(drow, b.Row(k), aik)
		}
	}
}

// axpy computes d[j] += a*s[j] for every j < len(s), four elements per
// iteration. Each element still gets one multiply and one add, in the
// same order as a plain loop, so results are bitwise unchanged.
func axpy(d, s []float64, a float64) {
	d = d[:len(s)]
	j := 0
	for ; j+4 <= len(s); j += 4 {
		dj, sj := d[j:j+4:j+4], s[j:j+4:j+4]
		dj[0] += a * sj[0]
		dj[1] += a * sj[1]
		dj[2] += a * sj[2]
		dj[3] += a * sj[3]
	}
	for ; j < len(s); j++ {
		d[j] += a * s[j]
	}
}

// mulTransARowsGo computes dst rows [lo, hi) of aᵀ·b. The k (sample) loop
// stays outermost, streaming a and b rows once.
func mulTransARowsGo(dst, a, b *Matrix, lo, hi int) {
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := lo; i < hi; i++ {
			aki := arow[i]
			if aki == 0 {
				continue
			}
			axpy(dst.Row(i), brow, aki)
		}
	}
}

// mulTransBRowsGo computes dst rows [lo, hi) of a·bᵀ as independent dot
// products.
func mulTransBRowsGo(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}
