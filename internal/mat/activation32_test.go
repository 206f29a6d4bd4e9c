package mat

import (
	"math"
	"math/rand"
	"testing"
)

// activationNames names the float32 activation leaves activationLeaves
// returns.
var activationNames = []string{"sigmoid32", "tanh32", "exp32", "relu32", "leakyRelu32"}

func activationLeaves(ks kernelSet) []func(row []float32) {
	return []func(row []float32){ks.sigmoid32, ks.tanh32, ks.exp32, ks.relu32,
		func(row []float32) { ks.leakyRelu32(row, testSlope) }}
}

// activationEdges are the float32 operands where a leaf changes branch:
// the tanh clamp ±4.97 with its float32 neighbours (also the sigmoid
// clamp ±9.94 and its neighbours), exp32's overflow and underflow limits
// with theirs, and values just beyond them.
var activationEdges = func() []float32 {
	var out []float32
	for _, c := range []float32{4.97, -4.97, 2 * 4.97, -2 * 4.97, expHi, expLo} {
		out = append(out, math.Nextafter32(c, float32(math.Inf(-1))), c, math.Nextafter32(c, float32(math.Inf(1))))
	}
	return append(out, 88.73, -88.73, -103.98, 103.98)
}()

// activationValue draws an operand for the activation tests: with
// probability special/256 an edge from activationEdges, a float32
// subnormal or one of kernelValue's specials narrowed to float32 (±0,
// ±Inf, NaNs, values that overflow); otherwise N(0, σ) with σ drawn from
// 1, 4 and 40, so the clamps and exp32's range reduction are reached
// often.
func activationValue(r *rand.Rand, special int) float32 {
	if r.Intn(256) >= special {
		return float32(r.NormFloat64()) * []float32{1, 4, 40}[r.Intn(3)]
	}
	switch r.Intn(4) {
	case 0, 1:
		return activationEdges[r.Intn(len(activationEdges))]
	case 2: // kernelValue's subnormals narrow to ±0
		return math.Float32frombits(uint32(r.Int63())&(1<<31|1<<23-1) | 1)
	default:
		return float32(kernelValue(r, 256))
	}
}

// sameBits32 reports whether x and y have the same bits, or are both NaN
// (as sameBits).
func sameBits32(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
}

// checkActivationsBitwise runs every activation leaf of impl and of
// goKernels on the same row, and fails at the first element whose bits
// differ (sameBits32). Each leaf runs on a sub-slice of a longer buffer
// whose guard elements before and after must stay as they were.
func checkActivationsBitwise(t testing.TB, impl kernelSet, r *rand.Rand, n, off, special int) {
	t.Helper()
	const guard = 9
	in := make([]float32, off+n+guard)
	for i := range in {
		in[i] = activationValue(r, special)
	}
	refs := activationLeaves(goKernels)
	for i, leaf := range activationLeaves(impl) {
		got, want := append([]float32(nil), in...), append([]float32(nil), in...)
		leaf(got[off : off+n])
		refs[i](want[off : off+n])
		for j, w := range want {
			if g := got[j]; !sameBits32(g, w) || (j < off || j >= off+n) && math.Float32bits(g) != math.Float32bits(in[j]) {
				t.Fatalf("%s %s n=%d off=%d: element %d of %v = %v (%#08x), go reference %v (%#08x)",
					impl.name, activationNames[i], n, off, j, in[j], g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
}

// TestActivationKernelsMatchGoReference compares every kernel set's
// activation leaves of both precisions, the float64 gradient leaves and
// the Adam leaf with the pure-Go reference bit for bit: the float32 ones
// at every row length up to two full vectors plus a tail, the lengths
// around 32 and the fast path's 64 and 94, the float64 ones at lengths 0
// to 9, 31 to 33, 64 and 96, all on rows at the start of their buffer and
// on one that starts an element into it, with operands from dense
// N(0, σ) to mostly specials and branch edges; then every float64 leaf on
// at least 2²⁴ operands more (checkLeaves64Dense). It has its own seeds,
// so the draws of the other kernel tests stay as they are.
func TestActivationKernelsMatchGoReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	lengths := []int{31, 32, 33, 64, 94}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths64 := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 64, 96}
	r64 := rand.New(rand.NewSource(30))
	for _, impl := range kernelImpls()[1:] {
		for trial := 0; trial < 80; trial++ {
			special := []int{0, 16, 128, 256}[trial%4]
			for _, n := range lengths {
				checkActivationsBitwise(t, impl, r, n, 0, special)
			}
			checkActivationsBitwise(t, impl, r, 37, 1, special)
			for _, n := range lengths64 {
				checkLeaves64Bitwise(t, impl, r64, n, 0, special)
			}
			checkLeaves64Bitwise(t, impl, r64, 37, 1, special)
		}
		checkLeaves64Dense(t, impl)
	}
}

// FuzzActivationKernels compares every kernel set's activation, gradient
// and Adam leaves with the pure-Go reference bit for bit on fuzzer-chosen
// seeds, row lengths, offsets into the buffer and special-value
// densities.
func FuzzActivationKernels(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(0), uint8(0))
	f.Add(int64(2), uint8(7), uint8(1), uint8(255))
	f.Add(int64(3), uint8(94), uint8(3), uint8(32))
	f.Add(int64(4), uint8(0), uint8(0), uint8(128))
	impls := kernelImpls()
	f.Fuzz(func(t *testing.T, seed int64, n, off, special uint8) {
		r := rand.New(rand.NewSource(seed))
		for _, impl := range impls[1:] {
			checkActivationsBitwise(t, impl, r, int(n), int(off)%8, int(special))
			checkLeaves64Bitwise(t, impl, r, int(n), int(off)%4, int(special))
		}
	})
}

// ulpErr32 is |got − want| in units of the float32 spacing at want: an
// ulp is 2^(e−23) for want in [2^e, 2^(e+1)), never less than the
// smallest subnormal.
func ulpErr32(got float32, want float64) float64 {
	_, e := math.Frexp(want)
	ulp := math.Max(math.Ldexp(1, e-24), 0x1p-149)
	return math.Abs(float64(got)-want) / ulp
}

// TestActivationKernelsAccuracy bounds each kernel set's leaves against
// float64 math on dense float32 grids: tanh32 and sigmoid32 within 1e-4
// absolute over [-12, 12] (beyond both clamps), exp32 within 2 ulp of
// math.Exp over [-87, 88]; and pins the specials: NaN gives NaN, exp32
// gives +0 at −Inf and +Inf at +Inf, tanh32 keeps the sign of ±0.
func TestActivationKernelsAccuracy(t *testing.T) {
	grid := func(lo, hi, step float64) []float32 {
		var xs []float32
		for x := lo; x <= hi; x += step {
			xs = append(xs, float32(x))
		}
		return xs
	}
	unit := grid(-12, 12, 1e-5)
	wide := grid(-87, 88, 1e-4)
	forEachKernelSet(t, func(t *testing.T) {
		for _, c := range []struct {
			name string
			run  func([]float32)
			ref  func(float64) float64
		}{
			{"Tanh32", Tanh32, math.Tanh},
			{"Sigmoid32", Sigmoid32, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
		} {
			row := append([]float32(nil), unit...)
			c.run(row)
			for i, x := range unit {
				if d := math.Abs(float64(row[i]) - c.ref(float64(x))); d > 1e-4 {
					t.Fatalf("%s(%v) = %v, want %v (error %.3g)", c.name, x, row[i], c.ref(float64(x)), d)
				}
			}
		}
		row := append([]float32(nil), wide...)
		Exp32(row)
		for i, x := range wide {
			if e := ulpErr32(row[i], math.Exp(float64(x))); e > 2 {
				t.Fatalf("Exp32(%v) = %v, want %v (%.3g ulp)", x, row[i], math.Exp(float64(x)), e)
			}
		}

		inf, nan, negZero := float32(math.Inf(1)), float32(math.NaN()), float32(math.Copysign(0, -1))
		specials := []struct {
			name string
			run  func([]float32)
			in   []float32
			want []float32
		}{
			{"Tanh32", Tanh32, []float32{0, negZero, inf, -inf}, []float32{0, negZero, 1, -1}},
			{"Sigmoid32", Sigmoid32, []float32{0, negZero, inf, -inf}, []float32{0.5, 0.5, 1, 0}},
			{"Exp32", Exp32, []float32{0, negZero, inf, -inf, 88.73, -103.98}, []float32{1, 1, inf, 0, inf, 0}},
		}
		for _, c := range specials {
			row := append(append([]float32(nil), c.in...), nan)
			c.run(row)
			for i, w := range c.want {
				if math.Float32bits(row[i]) != math.Float32bits(w) {
					t.Errorf("%s(%v) = %v (%#08x), want %v (%#08x)", c.name, c.in[i], row[i], math.Float32bits(row[i]), w, math.Float32bits(w))
				}
			}
			if got := row[len(c.in)]; got == got {
				t.Errorf("%s(NaN) = %v, want NaN", c.name, got)
			}
		}
	})
}

// TestActivationKernelsZeroAllocs: a warm activation, gradient or Adam
// leaf allocates nothing on any kernel set, also when a float64 row holds
// operands exp and sigmoid hand to the Go reference.
func TestActivationKernelsZeroAllocs(t *testing.T) {
	forEachKernelSet(t, func(t *testing.T) {
		row := make([]float32, 94)
		for i := range row {
			row[i] = float32(i)/8 - 6
		}
		for name, leaf := range map[string]func([]float32){
			"Sigmoid32": Sigmoid32, "Tanh32": Tanh32, "Exp32": Exp32, "ReLU32": ReLU32,
			"LeakyReLU32": func(row []float32) { LeakyReLU32(row, testSlope) },
		} {
			if allocs := testing.AllocsPerRun(20, func() { leaf(row) }); allocs != 0 {
				t.Errorf("%s: %v allocations per call, want 0", name, allocs)
			}
		}
		var bufs [4][]float64
		for b := range bufs {
			bufs[b] = make([]float64, 96)
			for i := range bufs[b] {
				bufs[b][i] = float64(i)/8 - 6
			}
		}
		bufs[0][50], bufs[0][93] = math.NaN(), -720
		w, y, m1, m2 := bufs[0], bufs[1], bufs[2], bufs[3]
		for name, leaf := range map[string]func(){
			"Sigmoid": func() { Sigmoid(w) }, "Tanh": func() { Tanh(w) }, "Exp": func() { Exp(w) },
			"ReLU": func() { ReLU(w) }, "LeakyReLU": func() { LeakyReLU(w, testSlope) },
			"ReLUGrad": func() { ReLUGrad(w, y) }, "LeakyReLUGrad": func() { LeakyReLUGrad(w, y, testSlope) },
			"AdamUpdate": func() { AdamUpdate(w, y, m1, m2, &testAdam) },
		} {
			if allocs := testing.AllocsPerRun(20, leaf); allocs != 0 {
				t.Errorf("%s: %v allocations per call, want 0", name, allocs)
			}
		}
	})
}
