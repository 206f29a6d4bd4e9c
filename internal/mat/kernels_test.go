package mat

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// raceEnabled reports a -race build (race_test.go), where sync.Pool drops
// items at random, so allocation counts are not exact.
var raceEnabled bool

// forEachKernelSet runs f as one subtest per available kernel set, with
// that set installed for the public matmul entry points.
func forEachKernelSet(t *testing.T, f func(t *testing.T)) {
	ForEachKernelSet(func(name string) { t.Run(name, f) })
}

// sameBits reports whether x and y have the same bits, or are both NaN.
// A NaN's payload is not part of the kernels' contract: when both operands
// of an add are NaN, x86 returns the first one, and the Go compiler orders
// MULSD and ADDSD operands differently in a -race build than in a normal
// one, so even the pure-Go reference does not fix it.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// kernelValue draws an operand for the differential tests. With
// probability special/256 it is one of the values where a kernel could
// disagree with the reference: ±0 (which also exercises the zero skip),
// ±Inf, quiet and signaling NaNs with random payloads and signs,
// subnormals, and magnitudes whose products overflow. Otherwise it is
// N(0, 1).
func kernelValue(r *rand.Rand, special int) float64 {
	if r.Intn(256) >= special {
		return r.NormFloat64()
	}
	sign := r.Uint64() & (1 << 63)
	const inf, quiet = 0x7ff0000000000000, 1 << 51
	switch r.Intn(6) {
	case 0:
		return math.Float64frombits(sign) // ±0
	case 1:
		return math.Float64frombits(sign | inf)
	case 2:
		return math.Float64frombits(sign | inf | quiet | r.Uint64()&(quiet-1))
	case 3: // signaling NaN: quiet bit clear, payload nonzero
		return math.Float64frombits(sign | inf | 1 | r.Uint64()&(quiet-1))
	case 4: // subnormal
		return math.Float64frombits(sign | 1 | r.Uint64()&(1<<52-1))
	default:
		return r.NormFloat64() * 1e300
	}
}

func kernelMat(r *rand.Rand, rows, cols, special int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = kernelValue(r, special)
	}
	return m
}

// checkKernelsBitwise runs each kernel of impl and of goKernels on the same
// m×k by k×n problem — a random row range of a destination pre-filled with
// random values, so accumulation into dst and untouched rows are checked
// too — and fails at the first element whose bits differ (sameBits). It
// then checks the nearest-word decode on m queries against n words of the
// dimension its assembly serves, 8.
func checkKernelsBitwise(t testing.TB, impl kernelSet, r *rand.Rand, m, k, n, special int) {
	t.Helper()
	a := kernelMat(r, m, k, special)
	at := kernelMat(r, k, m, special)
	b := kernelMat(r, k, n, special)
	bt := kernelMat(r, n, k, special)
	dst0 := kernelMat(r, m, n, special)
	lo := r.Intn(m + 1)
	hi := lo + r.Intn(m-lo+1)
	cases := []struct {
		name      string
		run, want func(dst, a, b *Matrix, lo, hi int)
		a, b      *Matrix
	}{
		{"mulRows", impl.mulRows, goKernels.mulRows, a, b},
		{"mulTransARows", impl.mulTransARows, goKernels.mulTransARows, at, b},
		{"mulTransBRows", impl.mulTransBRows, goKernels.mulTransBRows, a, bt},
	}
	for _, c := range cases {
		got, want := dst0.Clone(), dst0.Clone()
		b := c.b
		if c.name == "mulTransBRows" && impl.packB != nil {
			b = New(bt.Cols, bt.Rows)
			impl.packB(b, bt)
		}
		c.run(got, c.a, b, lo, hi)
		c.want(want, c.a, c.b, lo, hi)
		for i, w := range want.Data {
			if g := got.Data[i]; !sameBits(g, w) {
				t.Fatalf("%s %s m=%d k=%d n=%d rows [%d,%d): element (%d,%d) = %#016x (%v), go reference %#016x (%v)",
					impl.name, c.name, m, k, n, lo, hi, i/n, i%n, math.Float64bits(g), g, math.Float64bits(w), w)
			}
		}
	}
	checkNearestBitwise(t, impl, r, m, 8, n, special)
}

// checkNearestBitwise runs impl's and goKernels' nearest-word decode on the
// same n queries against words rows of dimension dim and fails at the first
// pick or best distance that differs. The words carry their true squared
// norms; some words repeat an earlier one, so two words tie exactly, and
// some queries copy a word, so a distance is exactly −‖w‖². Operands come
// from kernelValue, so ±0, ±Inf, NaN, subnormals and overflowing products
// appear at the given density.
func checkNearestBitwise(t testing.TB, impl kernelSet, r *rand.Rand, n, dim, words, special int) {
	t.Helper()
	w := kernelMat(r, words, dim, special)
	q := kernelMat(r, n, dim, special)
	sq := make([]float64, words)
	for j := range sq {
		if j > 0 && r.Intn(4) == 0 {
			copy(w.Row(j), w.Row(r.Intn(j)))
		}
		for _, x := range w.Row(j) {
			sq[j] += x * x
		}
	}
	for i := 0; i < n && words > 0; i++ {
		if r.Intn(4) == 0 {
			copy(q.Row(i), w.Row(r.Intn(words)))
		}
	}
	gotPick, wantPick := make([]int, n), make([]int, n)
	gotBest, wantBest := make([]float64, n), make([]float64, n)
	for i := range gotPick {
		gotPick[i], gotBest[i] = -1, math.NaN()
	}
	impl.nearest(gotPick, gotBest, q, w, sq)
	goKernels.nearest(wantPick, wantBest, q, w, sq)
	for i := range wantPick {
		if gotPick[i] != wantPick[i] || math.Float64bits(gotBest[i]) != math.Float64bits(wantBest[i]) {
			t.Fatalf("%s nearest n=%d dim=%d words=%d: query %d picks %d at %v (%#016x), go reference %d at %v (%#016x)",
				impl.name, n, dim, words, i, gotPick[i], gotBest[i], math.Float64bits(gotBest[i]),
				wantPick[i], wantBest[i], math.Float64bits(wantBest[i]))
		}
	}
}

// TestKernelGaugeNamesSelection checks that the mat.kernel.avx2 gauge,
// which tells a metrics reader which kernels produced the numbers, matches
// the set init picked, and that a gauge reading 1 means MulInto32 fuses
// its multiply-adds: the avx2 set is picked only on CPUs with FMA.
func TestKernelGaugeNamesSelection(t *testing.T) {
	want := 0.0
	if kernels.name == "avx2" {
		want = 1
	}
	got, ok := telemetry.Default.Snapshot().Gauges["mat.kernel.avx2"]
	if !ok || got != want {
		t.Fatalf("mat.kernel.avx2 = %v (set %v), want %v for kernel set %q", got, ok, want, kernels.name)
	}
	if got != 1 {
		return
	}
	// a₁·b₁ = 1 - 2⁻³⁰ exactly, which rounds to 1 on its own, so the
	// unfused sum a₀·b₀ + a₁·b₁ = -1 + 1 is 0, while a fused multiply-add
	// onto the -1 from k = 0 keeps -2⁻³⁰.
	a := &Matrix32{Rows: 1, Cols: 2, Data: []float32{1, 1 + 0x1p-15}}
	b := &Matrix32{Rows: 2, Cols: 1, Data: []float32{-1, 1 - 0x1p-15}}
	dst := new32(1, 1)
	MulInto32(dst, a, b)
	if dst.Data[0] != -0x1p-30 {
		t.Fatalf("mat.kernel.avx2 = 1 but the MulInto32 probe = %g, want the fused %g", dst.Data[0], -0x1p-30)
	}
}

// TestKernelsMatchGoReference compares every available kernel set with the
// pure-Go reference bit for bit over random shapes: ragged column counts
// that reach every column block width (32, 16, 8, 4 and the scalar tail),
// k of 0 and 1, and operands from dense N(0,1) to mostly special values.
func TestKernelsMatchGoReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, impl := range kernelImpls()[1:] {
		for trial := 0; trial < 400; trial++ {
			m, k, n := 1+r.Intn(9), r.Intn(40), r.Intn(76)
			if trial%10 == 0 {
				k = trial / 10 % 2
			}
			special := []int{0, 4, 32, 128}[trial%4]
			checkKernelsBitwise(t, impl, r, m, k, n, special)
		}
		for n := 0; n <= 70; n++ {
			checkKernelsBitwise(t, impl, r, 3, 5, n, 16)
		}
	}
}

// TestKernelsSkipZeroBeforeNonFinite pins the aik == 0 skip: a zero a
// element must leave its b row out entirely, so ±Inf and NaN there do not
// turn the output into NaN (0·Inf would). mulTransBRows has no skip and
// must propagate the NaN.
func TestKernelsSkipZeroBeforeNonFinite(t *testing.T) {
	forEachKernelSet(t, func(t *testing.T) {
		nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
		for _, n := range []int{1, 3, 4, 7, 32, 45} {
			// a = [1 ±0 2] against b rows [ones, non-finite, ones].
			b := New(3, n)
			for j := 0; j < n; j++ {
				b.Set(0, j, 1)
				b.Set(1, j, nonFinite[j%3])
				b.Set(2, j, 1)
			}
			for _, zero := range []float64{0, math.Copysign(0, -1)} {
				a := NewFrom(1, 3, []float64{1, zero, 2})
				for name, got := range map[string]*Matrix{
					"Mul":       Mul(a, b),
					"MulTransA": MulTransA(NewFrom(3, 1, a.Data), b),
				} {
					for j, v := range got.Data {
						if v != 3 {
							t.Fatalf("%s n=%d zero=%v: element %d = %v, want 3", name, n, zero, j, v)
						}
					}
				}
				got := MulTransB(a, NewFrom(n, 3, transpose(b).Data))
				for j, v := range got.Data {
					if !math.IsNaN(v) {
						t.Fatalf("MulTransB n=%d: element %d = %v, want NaN from 0·%v", n, j, v, nonFinite[j%3])
					}
				}
			}
		}
	})
}

func transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.Row(i)[j])
		}
	}
	return t
}

// FuzzMatKernels compares the assembly float64 kernels with the pure-Go
// reference bit for bit, and every set's float32 mul32 with the float64
// product within rounding tolerance, on fuzzer-chosen shapes,
// special-value densities and seeds. It also checks that each row of the
// float32 product, computed alone, equals the full product's row bit for
// bit, so no row depends on the rows it shares a tile with.
func FuzzMatKernels(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(102), uint8(32), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1), uint8(7), uint8(64))
	f.Add(int64(3), uint8(5), uint8(0), uint8(45), uint8(255))
	f.Add(int64(4), uint8(1), uint8(33), uint8(3), uint8(16))
	f.Add(int64(5), uint8(64), uint8(98), uint8(96), uint8(0))
	f.Add(int64(6), uint8(7), uint8(37), uint8(23), uint8(8))
	impls := kernelImpls()
	f.Fuzz(func(t *testing.T, seed int64, m, k, n, special uint8) {
		r := rand.New(rand.NewSource(seed))
		// Keep each case small: the value of a case is its shape and
		// operands, not its size.
		mm, kk, nn := 1+int(m)%17, int(k)%130, int(n)%130
		for _, impl := range impls[1:] {
			checkKernelsBitwise(t, impl, r, mm, kk, nn, int(special))
		}
		for _, impl := range impls {
			a, b := mul32Operands(r, mm, kk, nn, int(special))
			dst := nanMatrix32(mm, nn)
			impl.mul32(dst, a, b)
			checkMul32Close(t, impl.name, a, b, dst)
			one := nanMatrix32(1, nn)
			for i := 0; i < mm; i++ {
				impl.mul32(one, rowsView32(a, i, i+1), b)
				for j, want := range dst.Row(i) {
					if g := one.Data[j]; math.Float32bits(g) != math.Float32bits(want) {
						t.Fatalf("%s m=%d k=%d n=%d: row %d alone, element %d = %v, full product %v",
							impl.name, mm, kk, nn, i, j, g, want)
					}
				}
			}
		}
	})
}

// FuzzNearestKernels compares every assembly nearest-word decode with the
// pure-Go reference — picks and best distances, bit for bit — on
// fuzzer-chosen query and word counts, dimensions (mostly 8, the one the
// assembly serves), special-value densities and seeds; checkNearestBitwise
// adds exact ties and word-copying queries.
func FuzzNearestKernels(f *testing.F) {
	f.Add(int64(1), uint16(4099), uint16(334), uint8(0), uint8(0))
	f.Add(int64(2), uint16(7), uint16(3), uint8(0), uint8(64))
	f.Add(int64(3), uint16(4), uint16(1), uint8(0), uint8(255))
	f.Add(int64(4), uint16(13), uint16(40), uint8(3), uint8(16))
	f.Add(int64(5), uint16(0), uint16(5), uint8(0), uint8(32))
	impls := kernelImpls()
	f.Fuzz(func(t *testing.T, seed int64, n, words uint16, dim, special uint8) {
		r := rand.New(rand.NewSource(seed))
		// Dimensions other than 8 take the Go path in every set; they are
		// kept to check that fallback.
		d := 8
		if dim%4 == 3 {
			d = 1 + int(dim)%20
		}
		for _, impl := range impls[1:] {
			checkNearestBitwise(t, impl, r, int(n)%4100, d, int(words)%400, int(special))
		}
	})
}

// fmaProbe holds a, b, c with a·b = 1 - 2⁻⁶⁰ exactly: rounded on its own
// the product is 1 and a·b + c is 0, while one fused multiply-add keeps
// the low bits and gives -2⁻⁶⁰. A package variable keeps the compiler
// from folding the expression at compile time.
var fmaProbe = [3]float64{1 + 0x1p-30, 1 - 0x1p-30, -1}

// TestCompilerDoesNotFuseMultiplyAdd fails when the Go compiler contracts
// a*b + c into one FMA instruction, as the language spec allows. Go 1.24
// does so on arm64, ppc64le, s390x and riscv64 but not on amd64 at any
// GOAMD64 level; a later release could start at GOAMD64=v3. The pure-Go
// kernels, the assembly kernels' bit-for-bit reference and every training
// golden assume a separately rounded multiply and add, so such a build
// should fail here, naming the cause, rather than as a golden mismatch.
func TestCompilerDoesNotFuseMultiplyAdd(t *testing.T) {
	a, b, c := fmaProbe[0], fmaProbe[1], fmaProbe[2]
	if math.FMA(a, b, c) == 0 {
		t.Fatal("probe inputs do not tell a fused multiply-add from an unfused one")
	}
	if got := a*b + c; got != 0 {
		t.Fatalf("a*b + c = %g, want 0: the compiler fused the multiply and add into one FMA "+
			"(GOAMD64=v3 or later on a toolchain that contracts there, or an architecture "+
			"whose compiler always does); float64 results, the training goldens and the "+
			"assembly kernels' reference all assume unfused arithmetic: build for amd64 "+
			"with GOAMD64=v1", got)
	}
}

func randMat(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	m.RandNorm(r, 1)
	return m
}

// TestConcurrentMulIntoDisjointDsts runs matmuls from many goroutines at
// once into disjoint destinations, the pattern the per-chunk fine-tuning
// fan-out in internal/core produces, so the race detector sees the shared
// packB scratch pool. The race detector does not see the memory accesses
// of assembly kernels, so the run per kernel set also checks that
// concurrent calls on the assembly kernels return the single-call result.
func TestConcurrentMulIntoDisjointDsts(t *testing.T) {
	forEachKernelSet(t, testConcurrentMulIntoDisjointDsts)
}

func testConcurrentMulIntoDisjointDsts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const goroutines = 8
	const iters = 25
	as := make([]*Matrix, goroutines)
	bs := make([]*Matrix, goroutines)
	wants := make([]*Matrix, goroutines)
	bts := make([]*Matrix, goroutines)
	wantsT := make([]*Matrix, goroutines)
	for g := range as {
		as[g] = randMat(r, 13, 17)
		bs[g] = randMat(r, 17, 11)
		wants[g] = Mul(as[g], bs[g])
		bts[g] = randMat(r, 37, 17)
		wantsT[g] = MulTransB(as[g], bts[g])
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := New(13, 11)
			dstT := New(13, 37)
			for it := 0; it < iters; it++ {
				MulInto(dst, as[g], bs[g])
				MulTransAInto(New(17, 11), as[g].Clone(), wantsShape(as[g].Rows, 11, wants[g]))
				MulTransBInto(dstT, as[g], bts[g])
				if !bitsEqual(dst.Data, wants[g].Data) || !bitsEqual(dstT.Data, wantsT[g].Data) {
					t.Errorf("goroutine %d iter %d: result diverged", g, it)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// wantsShape returns a rows×cols matrix reusing src values (cycled), giving
// the stress test varied operands without extra RNG coordination.
func wantsShape(rows, cols int, src *Matrix) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.Data[i%len(src.Data)]
	}
	return m
}

// TestMatmulZeroAllocs: a warm float64 matmul at training shapes (the
// generator's 16×196×32 meta-hidden product and the 64×102×96 GRU input
// product) allocates nothing on any kernel set. MulTransBInto's bᵀ
// scratch comes from a pool, so it is warm after the first call.
func TestMatmulZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	forEachKernelSet(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		for _, sh := range [][3]int{{16, 196, 32}, {64, 102, 96}} {
			m, k, n := sh[0], sh[1], sh[2]
			a, b := randMat(r, m, k), randMat(r, k, n)
			at, bt := randMat(r, k, m), randMat(r, n, k)
			dst := New(m, n)
			for name, run := range map[string]func(){
				"MulInto":       func() { MulInto(dst, a, b) },
				"MulTransAInto": func() { MulTransAInto(dst, at, b) },
				"MulTransBInto": func() { MulTransBInto(dst, a, bt) },
			} {
				if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
					t.Errorf("%s %dx%dx%d: %v allocations per call, want 0", name, m, k, n, allocs)
				}
			}
		}
	})
}

// BenchmarkKernels times each kernel at the shapes the flow-GAN training
// loop spends its time in (DefaultConfig), and MulInto32 at the shapes of
// the float32 fast path's generator on a full 64-row lot of the
// DefaultConfig flow model served by the end-to-end benchmark (hidden 32,
// NoiseDim 8, 94 metadata columns, 17 feature columns): the GRU step's
// x·Wg (k = 8 + 94), h·Uzr, and (r⊙h)·Uh with the metadata MLP's hidden
// layer, the MLP's input and output layers and the output projection,
// plus (r⊙h)·Uh on a 37-row lot that live-row compaction left ragged; and
// the float32 activation leaves at the row lengths the fast path calls
// them on: 64 (the GRU's z|r gates), 32 (its candidate ĥ), 94 (the
// metadata row), 4 and 1 (the feature row's continuous runs) and 12 (the
// label softmax, trace.NumLabels); the float64 sigmoid, tanh and exp
// leaves of training at the same row lengths (the training GRU's gates
// are 64 and 32 wide too); the float64 ReLU and LeakyReLU leaves and
// their gradients on a batch-16 critic layer (512 elements), the float32
// ReLU on a 64-row lot's metadata hidden layer (2048); and the Adam update
// on a 196-32-32-1 critic's first weight matrix (6272 elements) and a
// bias (32). It runs once per available kernel set, on one goroutine.
// Shapes are m×k×n: an m×n product summed over k.
func BenchmarkKernels(b *testing.B) {
	shapes := []struct {
		op      string
		m, k, n int
	}{
		{"Mul", 16, 102, 32},
		{"Mul", 16, 196, 32},
		{"Mul", 16, 32, 32},
		{"MulTransA", 196, 16, 32},
		{"MulTransA", 102, 16, 32},
		{"MulTransB", 16, 32, 196},
		{"MulTransB", 16, 32, 102},
		{"Mul32", 64, 102, 96},
		{"Mul32", 64, 32, 64},
		{"Mul32", 64, 32, 32},
		{"Mul32", 64, 8, 32},
		{"Mul32", 64, 32, 94},
		{"Mul32", 64, 32, 17},
		{"Mul32", 37, 32, 32},
	}
	r := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		dst := New(sh.m, sh.n)
		var run func()
		switch sh.op {
		case "Mul":
			x, y := randMat(r, sh.m, sh.k), randMat(r, sh.k, sh.n)
			run = func() { MulInto(dst, x, y) }
		case "MulTransA":
			x, y := randMat(r, sh.k, sh.m), randMat(r, sh.k, sh.n)
			run = func() { MulTransAInto(dst, x, y) }
		case "MulTransB":
			x, y := randMat(r, sh.m, sh.k), randMat(r, sh.n, sh.k)
			run = func() { MulTransBInto(dst, x, y) }
		case "Mul32":
			x, y := mul32Operands(r, sh.m, sh.k, sh.n, 0)
			dst32 := new32(sh.m, sh.n)
			run = func() { MulInto32(dst32, x, y) }
		}
		for _, ks := range kernelImpls() {
			b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", sh.op, sh.m, sh.k, sh.n, ks.name), func(b *testing.B) {
				benchmarkKernelSet(b, ks, run)
			})
		}
	}
	for _, leaf := range []struct {
		op  string
		run func([]float32)
	}{{"Sigmoid32", Sigmoid32}, {"Tanh32", Tanh32}, {"Exp32", Exp32}} {
		for _, n := range []int{64, 32, 94, 4, 1, 12} {
			in := make([]float32, n)
			for i := range in {
				in[i] = float32(r.NormFloat64())
			}
			row := make([]float32, n)
			for _, ks := range kernelImpls() {
				b.Run(fmt.Sprintf("%s/%d/%s", leaf.op, n, ks.name), func(b *testing.B) {
					// Each call starts from the same operands, so the
					// leaf never iterates on its own saturated output.
					benchmarkKernelSet(b, ks, func() {
						copy(row, in)
						leaf.run(row)
					})
				})
			}
		}
	}
	for _, leaf := range []struct {
		op  string
		run func(dst, y []float64)
		ns  []int
	}{
		{"Sigmoid", func(d, _ []float64) { Sigmoid(d) }, []int{64, 32, 96, 4, 1, 12}},
		{"Tanh", func(d, _ []float64) { Tanh(d) }, []int{64, 32, 96, 4, 1, 12}},
		{"Exp", func(d, _ []float64) { Exp(d) }, []int{64, 32, 96, 4, 1, 12}},
		{"ReLU", func(d, _ []float64) { ReLU(d) }, []int{512}},
		{"LeakyReLU", func(d, _ []float64) { LeakyReLU(d, testSlope) }, []int{512}},
		{"ReLUGrad", ReLUGrad, []int{512}},
		{"LeakyReLUGrad", func(d, y []float64) { LeakyReLUGrad(d, y, testSlope) }, []int{512}},
	} {
		for _, n := range leaf.ns {
			in, y := make([]float64, n), make([]float64, n)
			for i := range in {
				in[i], y[i] = r.NormFloat64(), r.NormFloat64()
			}
			row := make([]float64, n)
			for _, ks := range kernelImpls() {
				b.Run(fmt.Sprintf("%s/%d/%s", leaf.op, n, ks.name), func(b *testing.B) {
					benchmarkKernelSet(b, ks, func() {
						copy(row, in)
						leaf.run(row, y)
					})
				})
			}
		}
	}
	in32 := make([]float32, 2048)
	for i := range in32 {
		in32[i] = float32(r.NormFloat64())
	}
	row32 := make([]float32, len(in32))
	for _, ks := range kernelImpls() {
		b.Run(fmt.Sprintf("ReLU32/%d/%s", len(in32), ks.name), func(b *testing.B) {
			benchmarkKernelSet(b, ks, func() {
				copy(row32, in32)
				ReLU32(row32)
			})
		})
	}
	for _, n := range []int{6272, 32} {
		var bufs [4][]float64
		for i := range bufs {
			bufs[i] = make([]float64, n)
			for j := range bufs[i] {
				bufs[i][j] = r.NormFloat64()
			}
		}
		for j, v := range bufs[3] {
			bufs[3][j] = v * v
		}
		w, g, m1, m2 := bufs[0], make([]float64, n), bufs[2], bufs[3]
		for _, ks := range kernelImpls() {
			b.Run(fmt.Sprintf("Adam/%d/%s", n, ks.name), func(b *testing.B) {
				// The update zeroes g; each call starts from the same
				// gradients, while w and the moments evolve as in training.
				benchmarkKernelSet(b, ks, func() {
					copy(g, bufs[1])
					AdamUpdate(w, g, m1, m2, &testAdam)
				})
			})
		}
	}
}

// benchmarkKernelSet times run with ks installed as the kernel set.
func benchmarkKernelSet(b *testing.B, ks kernelSet, run func()) {
	saved := kernels
	kernels = ks
	defer func() { kernels = saved }()
	for b.Loop() {
		run()
	}
}
