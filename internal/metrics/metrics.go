// Package metrics implements the fidelity measures of the paper's §6:
// Jensen–Shannon divergence for categorical field distributions, Earth
// Mover's Distance (Wasserstein-1) for continuous fields, the paper's
// [0.1, 0.9] EMD normalization for cross-field averaging, Spearman rank
// correlation for order-preservation results (Tables 3 and 4), and the
// relative-error measure of the downstream-task findings.
package metrics

import (
	"math"
	"sort"
)

// JSD returns the Jensen–Shannon divergence (base-2 logs, so the result is
// in [0,1]) between two categorical distributions given as count maps over
// the same comparable key type.
func JSD[K comparable](p, q map[K]float64) float64 {
	pt, qt := total(p), total(q)
	// Zero-mass, negative, or non-finite totals cannot be normalized into
	// distributions; two equally-degenerate inputs are maximally similar
	// (0), otherwise maximally divergent (1) — never NaN.
	if !(pt > 0) || !(qt > 0) || math.IsInf(pt, 0) || math.IsInf(qt, 0) {
		if pt == qt {
			return 0
		}
		return 1
	}
	keys := make(map[K]struct{}, len(p)+len(q))
	for k := range p {
		keys[k] = struct{}{}
	}
	for k := range q {
		keys[k] = struct{}{}
	}
	var div float64
	for k := range keys {
		pp := p[k] / pt
		qq := q[k] / qt
		m := (pp + qq) / 2
		if pp > 0 {
			div += 0.5 * pp * math.Log2(pp/m)
		}
		if qq > 0 {
			div += 0.5 * qq * math.Log2(qq/m)
		}
	}
	if div < 0 {
		div = 0 // guard against floating point dust
	}
	return div
}

func total[K comparable](m map[K]float64) float64 {
	var t float64
	for _, v := range m {
		t += v
	}
	return t
}

// EMD returns the Earth Mover's Distance (Wasserstein-1) between the
// empirical distributions of samples a and b, computed as the integrated
// absolute difference between their CDFs (the geometric interpretation the
// paper cites in footnote 7). The inputs need not be sorted or equal
// length.
func EMD(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == len(b) {
			return 0
		}
		return math.Inf(1)
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)

	// Sweep the merged support, integrating |F_a(x) − F_b(x)| dx.
	var (
		dist   float64
		i, j   int
		prev   float64
		first  = true
		na, nb = float64(len(as)), float64(len(bs))
	)
	for i < len(as) || j < len(bs) {
		var x float64
		switch {
		case i >= len(as):
			x = bs[j]
		case j >= len(bs):
			x = as[i]
		case as[i] <= bs[j]:
			x = as[i]
		default:
			x = bs[j]
		}
		if !first {
			fa := float64(i) / na
			fb := float64(j) / nb
			dist += math.Abs(fa-fb) * (x - prev)
		}
		for i < len(as) && as[i] == x {
			i++
		}
		for j < len(bs) && bs[j] == x {
			j++
		}
		prev, first = x, false
	}
	return dist
}

// NormalizeEMD maps raw EMD values across models to [0.1, 0.9] per the
// paper's footnote 1 ("we normalize the EMDs of all models ... to
// [0.1, 0.9]"), preserving order. Identical values all map to 0.5.
// Non-finite inputs (EMD returns +Inf when exactly one side is empty) are
// kept out of the scale so they cannot poison the rest with Inf/Inf = NaN:
// +Inf clamps to 0.9, −Inf to 0.1, and NaN maps to the 0.5 midpoint.
func NormalizeEMD(values []float64) []float64 {
	out := make([]float64, len(values))
	if len(values) == 0 {
		return out
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	allEqual := true
	for _, v := range values {
		if v != values[0] {
			allEqual = false
		}
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if allEqual {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i, v := range values {
		switch {
		case math.IsNaN(v):
			out[i] = 0.5
		case math.IsInf(v, 1):
			out[i] = 0.9
		case math.IsInf(v, -1):
			out[i] = 0.1
		case hi == lo:
			// A single distinct finite value alongside infinities.
			out[i] = 0.5
		default:
			out[i] = 0.1 + 0.8*(v-lo)/(hi-lo)
		}
	}
	return out
}

// Spearman returns Spearman's rank correlation coefficient between paired
// observations a and b (average ranks for ties). It returns 0 for fewer
// than two pairs or zero variance.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("metrics: Spearman length mismatch")
	}
	n := len(a)
	if n < 2 {
		return 0
	}
	ra, rb := ranks(a), ranks(b)
	return pearson(ra, rb)
}

func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// RelativeError returns |synthetic − real| / |real|, the downstream-task
// measure of Findings 2. A zero real value with nonzero synthetic yields
// +Inf; both zero yields 0.
func RelativeError(real, synthetic float64) float64 {
	if real == 0 {
		if synthetic == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(synthetic-real) / math.Abs(real)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation of the sorted samples.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}
