package mat

import (
	"math"
	"math/rand"
	"testing"
)

// leaf64 is one float64 leaf of a kernel set as the differential tests
// drive it: over dst, with y a second operand of dst's length (the
// gradient leaves read it) and aux two more (the Adam leaf's moments,
// which it updates).
type leaf64 struct {
	name string
	run  func(ks kernelSet, dst, y []float64, aux [2][]float64)
}

// testSlope is the LeakyReLU slope of the tests, the one internal/nn uses.
const testSlope = 0.2

// testAdam is an Adam step's coefficients at step 3 with the WGAN-GP betas
// internal/nn uses.
var testAdam = AdamCoeffs{B1: 0.5, C1: 0.5, B2: 0.9, C2: 1 - 0.9, BC1: 1 - 0.125, BC2: 1 - 0.729, LR: 1e-3, Eps: 1e-8}

var leaves64 = []leaf64{
	{"sigmoid", func(ks kernelSet, d, _ []float64, _ [2][]float64) { ks.sigmoid(d) }},
	{"tanh", func(ks kernelSet, d, _ []float64, _ [2][]float64) { ks.tanh(d) }},
	{"exp", func(ks kernelSet, d, _ []float64, _ [2][]float64) { ks.exp(d) }},
	{"relu", func(ks kernelSet, d, _ []float64, _ [2][]float64) { ks.relu(d) }},
	{"leakyRelu", func(ks kernelSet, d, _ []float64, _ [2][]float64) { ks.leakyRelu(d, testSlope) }},
	{"reluGrad", func(ks kernelSet, d, y []float64, _ [2][]float64) { ks.reluGrad(d, y) }},
	{"leakyReluGrad", func(ks kernelSet, d, y []float64, _ [2][]float64) { ks.leakyReluGrad(d, y, testSlope) }},
	{"adam", func(ks kernelSet, d, y []float64, m [2][]float64) { ks.adam(d, y, m[0], m[1], &testAdam) }},
}

// activationEdges64 are the float64 operands where a leaf changes branch
// or range, each with its neighbours: exp's fallback limit ±708 and
// math.Exp's overflow limit 709.78…; the edges of the band whose eˣ is
// subnormal, −708.39… to −745.13…; tanh's rational-form limit 0.625 and
// its ±1 limit 0.5·MAXLOG; and ±0.
var activationEdges64 = func() []float64 {
	var out []float64
	for _, c := range []float64{708, 7.09782712893384e+02, -708.3964185322641, -745.1332191019411, -745.1332191019412,
		0.625, 44.014845965556525, 0} {
		for _, v := range []float64{c, -c} {
			out = append(out, math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1)))
		}
	}
	return out
}()

// activationValue64 draws an operand for the float64 leaves: with
// probability special/256 an edge from activationEdges64, a value in the
// subnormal-result band or one of kernelValue's specials (±0, ±Inf, NaNs
// with random payloads, subnormals, values near ±1e300); otherwise N(0, σ)
// with σ drawn from 1, 4, 40 and 400, so the gates' working range, the
// tanh limits and exp's fallback are all reached often.
func activationValue64(r *rand.Rand, special int) float64 {
	if r.Intn(256) >= special {
		return r.NormFloat64() * []float64{1, 4, 40, 400}[r.Intn(4)]
	}
	switch r.Intn(4) {
	case 0, 1:
		return activationEdges64[r.Intn(len(activationEdges64))]
	case 2:
		return -708 - 37.2*r.Float64()
	default:
		return kernelValue(r, 256)
	}
}

// checkLeaves64Bitwise runs every float64 leaf of impl and of goKernels on
// the same operands, n elements at offset off into buffers with guard
// elements on both sides, and fails at the first element of any buffer
// whose bits differ (sameBits) or at a guard element that changed.
func checkLeaves64Bitwise(t testing.TB, impl kernelSet, r *rand.Rand, n, off, special int) {
	t.Helper()
	const guard = 5
	draw := func() []float64 {
		b := make([]float64, off+n+guard)
		for i := range b {
			b[i] = activationValue64(r, special)
		}
		return b
	}
	in := [4][]float64{draw(), draw(), draw(), draw()}
	for _, leaf := range leaves64 {
		var got, want [4][]float64
		for i, b := range in {
			got[i], want[i] = append([]float64(nil), b...), append([]float64(nil), b...)
		}
		view := func(bufs [4][]float64) (d, y []float64, aux [2][]float64) {
			s := func(i int) []float64 { return bufs[i][off : off+n] }
			return s(0), s(1), [2][]float64{s(2), s(3)}
		}
		d, y, aux := view(got)
		leaf.run(impl, d, y, aux)
		d, y, aux = view(want)
		leaf.run(goKernels, d, y, aux)
		for b := range in {
			for j, w := range want[b] {
				g := got[b][j]
				if !sameBits(g, w) || (j < off || j >= off+n) && math.Float64bits(g) != math.Float64bits(in[b][j]) {
					t.Fatalf("%s %s n=%d off=%d: operand %d element %d (inputs %v, %v, %v, %v) = %v (%#016x), go reference %v (%#016x)",
						impl.name, leaf.name, n, off, b, j, in[0][j], in[1][j], in[2][j], in[3][j],
						g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

// checkLeaves64Dense compares every float64 leaf of impl with goKernels'
// on at least 2²⁴ operands each, rows of 4093 elements (a ragged tail)
// drawn from every range the leaves distinguish: N(0, 1) and N(0, 40),
// uniform over [−750, 750], which holds exp's whole finite range and the
// subnormal band, and uniform over every float64 bit pattern.
func checkLeaves64Dense(t *testing.T, impl kernelSet) {
	const n, rows = 4093, 1<<24/4093 + 1
	r := rand.New(rand.NewSource(64))
	dists := []func() float64{
		r.NormFloat64,
		func() float64 { return 40 * r.NormFloat64() },
		func() float64 { return 1500*r.Float64() - 750 },
		func() float64 { return math.Float64frombits(r.Uint64()) },
	}
	var in, got, want [4][]float64
	for b := range in {
		in[b], got[b], want[b] = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	for row := 0; row < rows; row++ {
		dist := dists[row%len(dists)]
		for b := range in {
			for i := range in[b] {
				in[b][i] = dist()
			}
		}
		for _, leaf := range leaves64 {
			for b := range in {
				copy(got[b], in[b])
				copy(want[b], in[b])
			}
			leaf.run(impl, got[0], got[1], [2][]float64{got[2], got[3]})
			leaf.run(goKernels, want[0], want[1], [2][]float64{want[2], want[3]})
			for b := range in {
				if !bitsEqual(got[b], want[b]) {
					for j := range got[b] {
						if !sameBits(got[b][j], want[b][j]) {
							t.Fatalf("%s %s row %d: operand %d element %d (inputs %v, %v, %v, %v) = %v (%#016x), go reference %v (%#016x)",
								impl.name, leaf.name, row, b, j, in[0][j], in[1][j], in[2][j], in[3][j],
								got[b][j], math.Float64bits(got[b][j]), want[b][j], math.Float64bits(want[b][j]))
						}
					}
				}
			}
		}
	}
}
