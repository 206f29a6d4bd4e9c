package mat

import (
	"math"
	"sync"

	"repro/internal/telemetry"
)

// kernelSet is one implementation of the three float64 matmul row
// kernels, the float32 product, the nearest-word decode, the activation
// leaves of both precisions and the Adam update. Each float64 kernel
// computes dst rows [lo, hi) of its product; MulInto and MulTransAInto
// zero dst first and the kernels accumulate into it, while mulTransBRows
// overwrites its rows. Every entry but mul32 must produce the same bits as
// goKernels' for every input, except that a NaN may carry another payload
// (see sameBits in the tests). So every output element of a float64
// matmul accumulates over k in ascending order from +0 with one rounded
// multiply and one rounded add per step (never a fused multiply-add), and
// mulRows and mulTransARows skip every k whose a element is ±0, so an
// element's value never depends on which row span a call covers.
type kernelSet struct {
	name                                  string
	mulRows, mulTransARows, mulTransBRows func(dst, a, b *Matrix, lo, hi int)
	// packB, when set, writes bᵀ into a b.Cols×b.Rows scratch matrix;
	// MulTransBInto then passes mulTransBRows that bᵀ in place of b.
	packB func(bt, b *Matrix)
	// mul32 overwrites dst with the float32 product a·b for MulInto32. It
	// is outside the bit-for-bit rule: sets may round differently (the
	// fast path is pinned by distribution, DESIGN.md §11). Within one set,
	// though, an element's bits depend only on its row of a and its column
	// of b, never on how many rows or columns the call has.
	mul32 func(dst, a, b *Matrix32)
	// nearest is the nearest-word decode behind NearestRows: for each row
	// i of q it sets best[i] and pick[i] to the smallest sq[j] − 2·(w_j·q_i)
	// over the rows j of w and the first j that attains it. Like the
	// float64 matmuls it must match goKernels' bits exactly (nearestGo).
	nearest func(pick []int, best []float64, q, w *Matrix, sq []float64)
	// sigmoid32, tanh32, exp32, relu32 and leakyRelu32 are the float32
	// activation leaves behind Sigmoid32, Tanh32, Exp32, ReLU32 and
	// LeakyReLU32 (activation32.go): each sets every element x of row to
	// its function of x. Unlike mul32 they must match goKernels' bits
	// exactly, so the fast path's outputs do not depend on the CPU's
	// activations.
	sigmoid32, tanh32, exp32, relu32 func(row []float32)
	leakyRelu32                      func(row []float32, slope float32)
	// sigmoid, tanh, exp, relu and leakyRelu are the float64 activation
	// leaves of training behind Sigmoid, Tanh, Exp, ReLU and LeakyReLU, and
	// reluGrad and leakyReluGrad their backward passes behind ReLUGrad and
	// LeakyReLUGrad (activation64.go); y is as long as dx. goKernels' exp
	// and tanh are math.Exp and math.Tanh themselves, so every set's
	// training bits are those of the Go math package.
	sigmoid, tanh, exp, relu func(row []float64)
	leakyRelu                func(row []float64, slope float64)
	reluGrad                 func(dx, y []float64)
	leakyReluGrad            func(dx, y []float64, slope float64)
	// adam is the Adam update behind AdamUpdate (adam.go), over slices of
	// one length.
	adam func(w, g, m1, m2 []float64, c *AdamCoeffs)
}

// goKernels is the pure-Go reference: the fallback on CPUs without an
// assembly implementation and the oracle the assembly kernels are tested
// against.
var goKernels = kernelSet{
	name:    "go",
	mulRows: mulRowsGo, mulTransARows: mulTransARowsGo, mulTransBRows: mulTransBRowsGo,
	mul32: mul32Go, nearest: nearestGo,
	sigmoid32: sigmoid32Go, tanh32: tanh32Go, exp32: exp32Go,
	relu32: reluGo[float32], leakyRelu32: leakyReluGo[float32],
	sigmoid: sigmoidGo, tanh: tanhGo, exp: expGo,
	relu: reluGo[float64], leakyRelu: leakyReluGo[float64],
	reluGrad: reluGradGo, leakyReluGrad: leakyReluGradGo,
	adam: adamGo,
}

// packPool recycles scratch matrices — the bᵀ packB fills and the
// nearest-word decode's transposed queries — so steady-state training and
// decoding allocate none. distPool holds NearestRows' best distances apart
// from them, so the two scratch sizes of one decode never trade places.
var (
	packPool = sync.Pool{New: func() any { return new(Matrix) }}
	distPool = sync.Pool{New: func() any { return new(Matrix) }}
)

// kernels is the set MulInto, MulTransAInto, MulTransBInto, MulInto32,
// NearestRows, the activation leaves and AdamUpdate run. It is chosen once at
// package init from the CPU (archKernels) and reported by the
// mat.kernel.avx2 gauge, so a metrics dump shows which kernels produced
// its numbers.
var kernels = goKernels

func init() {
	avx2 := 0.0
	if k, ok := archKernels(); ok {
		kernels = k
		avx2 = 1
	}
	telemetry.Default.Gauge("mat.kernel.avx2").Set(avx2)
}

// kernelImpls lists every kernel set this build and CPU can run, the
// pure-Go reference first.
func kernelImpls() []kernelSet {
	impls := []kernelSet{goKernels}
	if k, ok := archKernels(); ok {
		impls = append(impls, k)
	}
	return impls
}

// ForEachKernelSet calls f once per kernel set this build and CPU can run,
// the pure-Go reference first, with that set installed for every matmul
// entry point, NearestRows, the activation leaves and AdamUpdate, and then
// restores the set init chose. It exists for tests in other packages: the race
// detector cannot see memory accesses made by assembly, so a test of
// concurrent matmul use also runs on the pure-Go set. f must wait for
// every matmul it starts, and nothing else may call into this package
// while ForEachKernelSet runs.
func ForEachKernelSet(f func(name string)) {
	saved := kernels
	defer func() { kernels = saved }()
	for _, ks := range kernelImpls() {
		kernels = ks
		f(ks.name)
	}
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

// mul32Go computes dst = a·b in float32, four k-rows of b per pass: each
// pass over a dst row does 4 multiply-adds per element instead of 1,
// quartering the dominant dst load/store traffic (inner dims here are
// small, so the kernel is stream-bound, not cache-bound) and giving the
// scalar pipeline independent products.
func mul32Go(dst, a, b *Matrix32) {
	dst.Zero()
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)[:n]
		k := 0
		for ; k+4 <= a.Cols; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			b0 := b.Row(k)[:n]
			b1 := b.Row(k + 1)[:n]
			b2 := b.Row(k + 2)[:n]
			b3 := b.Row(k + 3)[:n]
			for j := range drow {
				drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < a.Cols; k++ {
			aik := arow[k]
			brow := b.Row(k)[:n]
			for j := range drow {
				drow[j] += aik * brow[j]
			}
		}
	}
}

// nearestGo is the pure-Go reference of kernelSet.nearest. Each query row
// scans the rows of w in ascending order from best = +Inf, pick = 0 and
// takes a row only when its distance is strictly smaller, so the first
// minimal row wins, a NaN distance never wins, and a query whose distances
// are all NaN or +Inf picks row 0.
func nearestGo(pick []int, best []float64, q, w *Matrix, sq []float64) {
	for i := 0; i < q.Rows; i++ {
		qi := q.Row(i)
		b, p := math.Inf(1), 0
		for j, s := range sq {
			if d := s - 2*dot(w.Row(j), qi); d < b {
				b, p = d, j
			}
		}
		best[i], pick[i] = b, p
	}
}

// dot is the dot product the nearest-word decode scores with. The four
// independent accumulators break the floating-point add dependency chain (a
// strictly sequential sum is latency-bound at one add every ~4 cycles);
// because Go may not reassociate FP sums, the fixed grouping below is
// itself deterministic, and the assembly decode kernel repeats the case 8
// grouping exactly.
func dot(a, b []float64) float64 {
	switch len(a) {
	case 8:
		x, y := (*[8]float64)(a), (*[8]float64)(b[:8])
		return (x[0]*y[0] + x[4]*y[4]) + (x[1]*y[1] + x[5]*y[5]) +
			(x[2]*y[2] + x[6]*y[6]) + (x[3]*y[3] + x[7]*y[7])
	case 16:
		x, y := (*[16]float64)(a), (*[16]float64)(b[:16])
		d0 := x[0]*y[0] + x[4]*y[4] + x[8]*y[8] + x[12]*y[12]
		d1 := x[1]*y[1] + x[5]*y[5] + x[9]*y[9] + x[13]*y[13]
		d2 := x[2]*y[2] + x[6]*y[6] + x[10]*y[10] + x[14]*y[14]
		d3 := x[3]*y[3] + x[7]*y[7] + x[11]*y[11] + x[15]*y[15]
		return (d0 + d1) + (d2 + d3)
	}
	b = b[:len(a)]
	var d0, d1, d2, d3 float64
	k := 0
	for ; k+4 <= len(a); k += 4 {
		d0 += a[k] * b[k]
		d1 += a[k+1] * b[k+1]
		d2 += a[k+2] * b[k+2]
		d3 += a[k+3] * b[k+3]
	}
	dot := (d0 + d1) + (d2 + d3)
	for ; k < len(a); k++ {
		dot += a[k] * b[k]
	}
	return dot
}
