package mat

// avx2Kernels run the row kernels in AVX2 assembly (kernels_amd64.s).
// The float64 kernels vectorize across output columns only: each output
// element still accumulates over k in ascending order with separate VMULPD
// and VADDPD (never VFMADD), so their bits equal goKernels' for every
// input. So do the nearest-word decode, nearestAVX2, the float32
// activation leaves, which evaluate the Go references' float32 operations
// in the same order with separate VMULPS, VADDPS and VDIVPS, and the Adam
// update. The float32 matmul, mul32FMA, does use FMA, and so do the
// float64 exp, sigmoid and tanh leaves, because the reference they repeat,
// math.Exp, does: see archKernels.
var avx2Kernels = kernelSet{
	name:    "avx2",
	mulRows: mulRowsAVX2, mulTransARows: mulTransARowsAVX2, mulTransBRows: mulTransBRowsAVX2,
	packB: packTransposeAVX2, mul32: mul32FMA, nearest: nearestAVX2,
	sigmoid32: sigmoid32AVX2, tanh32: tanh32AVX2, exp32: exp32AVX2,
	relu32: relu32AVX2, leakyRelu32: leakyRelu32AVX2,
	sigmoid: sigmoidAVX2, tanh: tanhAVX2, exp: expAVX2,
	relu: reluAVX2, leakyRelu: leakyReluAVX2,
	reluGrad: reluGradAVX2, leakyReluGrad: leakyReluGradAVX2,
	adam: adamAVX2,
}

// archKernels returns the AVX2 kernels when the CPU has AVX2 and FMA and
// the OS saves the YMM registers. That condition implies math's useFMA
// (AVX and FMA, each with the OS saving the YMM registers), so wherever
// the avx2 set runs, math.Exp takes the avxfma branch of
// math/exp_amd64.s, whose fused multiply-adds expRows repeats lane by
// lane.
func archKernels() (kernelSet, bool) {
	if !cpuHasAVX2FMA() {
		return kernelSet{}, false
	}
	return avx2Kernels, true
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

const (
	cpuidOSXSAVE = 1 << 27 // CPUID.1:ECX
	cpuidAVX     = 1 << 28 // CPUID.1:ECX
	cpuidFMA     = 1 << 12 // CPUID.1:ECX
	cpuidAVX2    = 1 << 5  // CPUID.(7,0):EBX
	xcr0YMMXMM   = 0b110   // XCR0: the OS saves SSE and AVX state
)

func cpuHasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(cpuidOSXSAVE|cpuidAVX) != cpuidOSXSAVE|cpuidAVX {
		return false // without OSXSAVE, XGETBV faults
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	return avx2FMAUsable(ecx1, xcr0, ebx7)
}

// avx2FMAUsable reports, from CPUID.1:ECX, XCR0 and CPUID.(7,0):EBX,
// whether the CPU has AVX2 and FMA and the OS saves the YMM registers.
func avx2FMAUsable(ecx1, xcr0, ebx7 uint32) bool {
	const ecxWant = cpuidOSXSAVE | cpuidAVX | cpuidFMA
	return ecx1&ecxWant == ecxWant && xcr0&xcr0YMMXMM == xcr0YMMXMM && ebx7&cpuidAVX2 != 0
}

// axpyRowsAVX2 computes, for each of m rows r, d[r*ldd+j] +=
// a[r*ai+kk*ak] * b[kk*ldb+j] for j < n and kk ascending from 0 to k-1,
// skipping every kk whose a element is ±0. Each row's d slice is held in
// registers across the whole kk loop, 32 columns at a time.
//
//go:noescape
func axpyRowsAVX2(d, a, b *float64, m, n, k, ldd, ai, ak, ldb int)

// dotRowsAVX2 computes, for each of m rows r, d[r*ldd+j] = Σ a[r*ai+kk*ak]
// * b[kk*ldb+j] for j < n, summed from +0 with kk ascending and no skip.
// b is the transposed operand of a·bᵀ, packed so that columns are
// contiguous.
//
//go:noescape
func dotRowsAVX2(d, a, b *float64, m, n, k, ldd, ai, ak, ldb int)

func mulRowsAVX2(dst, a, b *Matrix, lo, hi int) {
	if lo == hi || a.Cols == 0 || b.Cols == 0 {
		return
	}
	axpyRowsAVX2(&dst.Data[lo*dst.Cols], &a.Data[lo*a.Cols], &b.Data[0],
		hi-lo, b.Cols, a.Cols, dst.Cols, a.Cols, 1, b.Cols)
}

func mulTransARowsAVX2(dst, a, b *Matrix, lo, hi int) {
	if lo == hi || a.Rows == 0 || b.Cols == 0 {
		return
	}
	axpyRowsAVX2(&dst.Data[lo*dst.Cols], &a.Data[lo], &b.Data[0],
		hi-lo, b.Cols, a.Rows, dst.Cols, 1, a.Cols, b.Cols)
}

// mulTransBRowsAVX2 computes dst rows [lo, hi) of a·bᵀ from bt = bᵀ,
// which packTransposeAVX2 wrote.
func mulTransBRowsAVX2(dst, a, bt *Matrix, lo, hi int) {
	if lo == hi || bt.Cols == 0 {
		return
	}
	if bt.Rows == 0 {
		for i := lo; i < hi; i++ {
			clear(dst.Row(i))
		}
		return
	}
	dotRowsAVX2(&dst.Data[lo*dst.Cols], &a.Data[lo*a.Cols], &bt.Data[0],
		hi-lo, bt.Cols, bt.Rows, dst.Cols, a.Cols, 1, bt.Cols)
}

// transposeAVX2 writes the transpose of the rows×cols top-left block of
// src (row stride lds) into dst (row stride ldd), 4×4 tiles at a time;
// rows and cols must be multiples of 4.
//
//go:noescape
func transposeAVX2(dst, src *float64, rows, cols, ldd, lds int)

// packTransposeAVX2 writes bᵀ into bt: the whole 4×4 tiles in assembly,
// the ragged right and bottom edges in Go.
func packTransposeAVX2(bt, b *Matrix) {
	n, k := b.Rows, b.Cols
	n4, k4 := n&^3, k&^3
	if n4 > 0 && k4 > 0 {
		transposeAVX2(&bt.Data[0], &b.Data[0], n4, k4, n, k)
	}
	for j := 0; j < n; j++ {
		from := k4
		if j >= n4 {
			from = 0
		}
		for kk := from; kk < k; kk++ {
			bt.Data[kk*n+j] = b.Data[j*k+kk]
		}
	}
}

// mulRows32FMA computes, for each of m rows r, d[r*n+j] = Σ a[r*k+kk] ·
// b[kk*n+j] for j < n: one fused multiply-add chain per element over kk
// ascending from +0, overwriting d. It works in tiles of 4 rows × 16
// columns held in Y0-Y7 across the whole kk loop, so each b vector it
// loads feeds four rows; then the last 1 to 15 columns in 4-row blocks of
// up to 8, masked to the columns left. Leftover rows of the last tile
// repeat row m-1. Every element rounds the same in every tile and block,
// so its bits do not depend on m, n or where it falls. k must be at
// least 1.
//
//go:noescape
func mulRows32FMA(d, a, b *float32, m, n, k int)

func mul32FMA(dst, a, b *Matrix32) {
	if a.Rows == 0 || b.Cols == 0 {
		return
	}
	if a.Cols == 0 {
		dst.Zero()
		return
	}
	mulRows32FMA(&dst.Data[0], &a.Data[0], &b.Data[0], a.Rows, b.Cols, a.Cols)
}

// nearest8AVX2 is kernelSet.nearest for n queries of dimension 8 (n a
// positive multiple of 4) against words ≥ 1 rows of w, from qt, the 8×n
// transpose of the queries. Four queries share each YMM register; for each
// word it forms dot's case 8 sum with separate VMULPD and VADDPD (never
// FMA), then sq[j] − (dot+dot), and blends it and j into best and pick
// where it is strictly smaller (ordered compare, so a NaN never wins).
//
//go:noescape
func nearest8AVX2(pick *int, best, qt, w, sq *float64, n, words int)

// nearestAVX2 runs nearest8AVX2 on the whole 4-query groups of a dimension
// 8 batch, through a transposed copy of the queries in pooled scratch, and
// the Go reference on the ragged tail rows and on every other dimension.
func nearestAVX2(pick []int, best []float64, q, w *Matrix, sq []float64) {
	n4 := q.Rows &^ 3
	if q.Cols != 8 || n4 == 0 || w.Rows == 0 {
		nearestGo(pick, best, q, w, sq)
		return
	}
	qt := packPool.Get().(*Matrix).Reshape(8, n4)
	transposeAVX2(&qt.Data[0], &q.Data[0], n4, 8, n4, 8)
	nearest8AVX2(&pick[0], &best[0], &qt.Data[0], &w.Data[0], &sq[0], n4, w.Rows)
	packPool.Put(qt)
	tail := Matrix{Rows: q.Rows - n4, Cols: 8, Data: q.Data[n4*8:]}
	nearestGo(pick[n4:], best[n4:], &tail, w, sq)
}

// sigmoid32Rows, tanh32Rows and exp32Rows run sigmoid32, tanh32 and exp32
// on 8 lanes at a time over a row of at least 8 elements; a row whose
// length is not a multiple of 8 ends with a vector that overlaps the one
// before it.
//
//go:noescape
func sigmoid32Rows(row []float32)

//go:noescape
func tanh32Rows(row []float32)

//go:noescape
func exp32Rows(row []float32)

// sigmoid32AVX2, tanh32AVX2 and exp32AVX2 are the avx2 set's activation
// leaves. A row shorter than one vector (the fast path's feature row has
// runs of 4 and 1) takes the Go reference, which computes the same bits:
// one vector is one long dependency chain, while the Go loop's
// per-element chains overlap, so on 1 to 7 elements the Go loop is the
// faster of the two.
func sigmoid32AVX2(row []float32) {
	if len(row) < 8 {
		sigmoid32Go(row)
		return
	}
	sigmoid32Rows(row)
}

func tanh32AVX2(row []float32) {
	if len(row) < 8 {
		tanh32Go(row)
		return
	}
	tanh32Rows(row)
}

func exp32AVX2(row []float32) {
	if len(row) < 8 {
		exp32Go(row)
		return
	}
	exp32Rows(row)
}

// tanhRows, reluRows, leakyReluRows and relu32Rows, leakyRelu32Rows run
// the float64 leaves on 4 lanes and the float32 ones on 8 lanes at a time
// over a row of at least one vector, and reluGradRows and
// leakyReluGradRows the gradients over dx and y of one length, dx of at
// least 4. Like the float32 leaves above, a row whose length is not a
// multiple of the vector ends with a vector that overlaps the one before
// it.
//
//go:noescape
func tanhRows(row []float64)

//go:noescape
func reluRows(row []float64)

//go:noescape
func leakyReluRows(row []float64, slope float64)

//go:noescape
func reluGradRows(dx, y []float64)

//go:noescape
func leakyReluGradRows(dx, y []float64, slope float64)

//go:noescape
func relu32Rows(row []float32)

//go:noescape
func leakyRelu32Rows(row []float32, slope float32)

// expRows and sigmoidRows run exp and sigmoid on 4 lanes at a time over a
// row of at least 4 elements, from its start, until a group of 4 has a
// lane that is NaN or at least 708 in magnitude — where math.Exp leaves
// its normal range for overflow, underflow, subnormal results and
// non-finite inputs — and return the index i of the first element they
// did not compute. Elements from i on are untouched, and the group is
// row[i:min(i+4, len(row))]: it is shorter than 4 when it is the row's
// overlapping last 4, of which the whole groups before covered the first
// few. When every group is in range they return len(row).
//
//go:noescape
func expRows(row []float64) int

//go:noescape
func sigmoidRows(row []float64) int

// adamRows is kernelSet.adam over n ≥ 4 elements of each slice, 4 lanes
// at a time, ending with an overlapping vector.
//
//go:noescape
func adamRows(w, grad, m1, m2 *float64, n int, c *AdamCoeffs)

// expAVX2 and sigmoidAVX2 run expRows and sigmoidRows and hand each group
// they stop at, and a row's last 1 to 3 elements after one, to the Go
// reference.
func expAVX2(row []float64) { withFallback(row, expRows, expGo) }

func sigmoidAVX2(row []float64) { withFallback(row, sigmoidRows, sigmoidGo) }

func withFallback(row []float64, vec func([]float64) int, ref func([]float64)) {
	for len(row) >= 4 {
		i := vec(row)
		if i == len(row) {
			return
		}
		j := min(i+4, len(row))
		ref(row[i:j])
		row = row[j:]
	}
	ref(row)
}

// The other float64 leaves take the Go reference on rows shorter than one
// vector, as the float32 leaves do.
func tanhAVX2(row []float64) {
	if len(row) < 4 {
		tanhGo(row)
		return
	}
	tanhRows(row)
}

func reluAVX2(row []float64) {
	if len(row) < 4 {
		reluGo(row)
		return
	}
	reluRows(row)
}

func leakyReluAVX2(row []float64, slope float64) {
	if len(row) < 4 {
		leakyReluGo(row, slope)
		return
	}
	leakyReluRows(row, slope)
}

func reluGradAVX2(dx, y []float64) {
	if len(dx) < 4 {
		reluGradGo(dx, y)
		return
	}
	reluGradRows(dx, y)
}

func leakyReluGradAVX2(dx, y []float64, slope float64) {
	if len(dx) < 4 {
		leakyReluGradGo(dx, y, slope)
		return
	}
	leakyReluGradRows(dx, y, slope)
}

func relu32AVX2(row []float32) {
	if len(row) < 8 {
		reluGo(row)
		return
	}
	relu32Rows(row)
}

func leakyRelu32AVX2(row []float32, slope float32) {
	if len(row) < 8 {
		leakyReluGo(row, slope)
		return
	}
	leakyRelu32Rows(row, slope)
}

func adamAVX2(w, g, m1, m2 []float64, c *AdamCoeffs) {
	if len(w) < 4 {
		adamGo(w, g, m1, m2, c)
		return
	}
	adamRows(&w[0], &g[0], &m1[0], &m2[0], len(w), c)
}
