package privacy

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// This file holds the building blocks of data-parallel per-sample gradient
// accumulation. Training shards a lot across workers; each worker computes
// per-sample gradients on its own model replica, flattens them with GradVec
// and clips them with ClipVec, writing into a per-sample slot. TreeReduce
// then folds the slots in a fixed-shape binary tree whose addition order
// depends only on the lot size — never on the worker count or shard
// boundaries — so the reduced lot gradient is bitwise identical for any
// parallelism level. AccumulateLot feeds the result into the DPSGD
// accumulator, where Finalize adds noise exactly as in the serial path.

// GradSize returns the total gradient element count of m, the length
// GradVec and AccumulateLot expect.
func GradSize(m nn.Module) int {
	var n int
	for _, p := range m.Params() {
		n += len(p.G.Data)
	}
	return n
}

// GradVec flattens m's accumulated gradients into dst in parameter order
// and returns it. dst must have length GradSize(m).
func GradVec(m nn.Module, dst []float64) []float64 {
	off := 0
	for _, p := range m.Params() {
		off += copy(dst[off:], p.G.Data)
	}
	if off != len(dst) {
		panic(fmt.Sprintf("privacy: GradVec dst length %d, want %d", len(dst), off))
	}
	return dst
}

// ClipVec rescales v in place so its L2 norm is at most c, returning the
// pre-clip norm — the flat-vector twin of nn.ClipGradNorm.
func ClipVec(v []float64, c float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	norm := math.Sqrt(s)
	if norm > c && norm > 0 {
		f := c / norm
		for i := range v {
			v[i] *= f
		}
	}
	return norm
}

// TreeReduce sums the equal-length vectors vs into vs[0] (returned) using a
// fixed-shape pairwise tree: round r adds slot i+2^r into slot i for every
// aligned pair. The addition order is a function of len(vs) alone, so any
// sharding of the per-sample work — or none — yields bitwise-identical
// sums. vs is mutated (slots other than vs[0] become partial sums).
func TreeReduce(vs [][]float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	n := len(vs)
	for stride := 1; stride < n; stride *= 2 {
		for i := 0; i+stride < n; i += 2 * stride {
			a, b := vs[i], vs[i+stride]
			if len(a) != len(b) {
				panic(fmt.Sprintf("privacy: TreeReduce length mismatch %d vs %d", len(a), len(b)))
			}
			for j, x := range b {
				a[j] += x
			}
		}
	}
	return vs[0]
}

// AccumulateLot adds a precomputed clipped per-sample gradient sum
// (flattened in m's parameter order, as produced by GradVec/TreeReduce)
// into the lot accumulator. Finalize then applies noise and averaging.
func (d *DPSGD) AccumulateLot(m nn.Module, sum []float64) {
	ps := m.Params()
	if !d.sumsMatch(ps) {
		d.sums = make([][]float64, len(ps))
		for i, p := range ps {
			d.sums[i] = make([]float64, len(p.G.Data))
		}
	}
	off := 0
	for i := range ps {
		row := d.sums[i]
		for j := range row {
			row[j] += sum[off]
			off++
		}
	}
	if off != len(sum) {
		panic(fmt.Sprintf("privacy: AccumulateLot sum length %d, want %d", len(sum), off))
	}
}
