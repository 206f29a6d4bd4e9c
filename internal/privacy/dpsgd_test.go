package privacy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/nn"
)

// AccumulateSample is the serial reference for the training loop's
// AccumulateLot path. It clips the module's currently accumulated
// gradients (which must correspond to exactly one sample) to ClipNorm and
// adds them to the lot sum, then zeroes the module's gradients. One DPSGD
// instance may be shared across modules with different parameter shapes
// (e.g. a main and an auxiliary critic) as long as each module's
// Accumulate/Finalize cycle completes before the next module's begins; the
// lot buffers are rebuilt on shape changes.
func (d *DPSGD) AccumulateSample(m nn.Module) {
	ps := m.Params()
	if !d.sumsMatch(ps) {
		d.sums = make([][]float64, len(ps))
		for i, p := range ps {
			d.sums[i] = make([]float64, len(p.G.Data))
		}
	}
	nn.ClipGradNorm(m, d.Config.ClipNorm)
	for i, p := range ps {
		for j, g := range p.G.Data {
			d.sums[i][j] += g
		}
		p.ZeroGrad()
	}
}

func TestConfigValidate(t *testing.T) {
	good := DPSGDConfig{ClipNorm: 1, NoiseMultiplier: 1, SampleRate: 0.01, Delta: 1e-5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []DPSGDConfig{
		{ClipNorm: 0, NoiseMultiplier: 1, SampleRate: 0.01, Delta: 1e-5},
		{ClipNorm: 1, NoiseMultiplier: -1, SampleRate: 0.01, Delta: 1e-5},
		{ClipNorm: 1, NoiseMultiplier: 1, SampleRate: 0, Delta: 1e-5},
		{ClipNorm: 1, NoiseMultiplier: 1, SampleRate: 1.5, Delta: 1e-5},
		{ClipNorm: 1, NoiseMultiplier: 1, SampleRate: 0.01, Delta: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should fail validation", i)
		}
	}
}

func TestAccumulateClipsPerSample(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := nn.NewDense("d", 2, 1)
	dp, err := NewDPSGD(DPSGDConfig{ClipNorm: 1, NoiseMultiplier: 0, SampleRate: 1, Delta: 1e-5}, r)
	if err != nil {
		t.Fatal(err)
	}
	// One huge-gradient sample: contribution must be capped at norm 1.
	d.Weight.G.Fill(100)
	dp.AccumulateSample(d)
	dp.Finalize(d, 1)
	if norm := nn.GradNorm(d); math.Abs(norm-1) > 1e-9 {
		t.Fatalf("clipped gradient norm = %v, want 1", norm)
	}
}

func TestFinalizeAveragesOverLot(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	d := nn.NewDense("d", 1, 1)
	dp, _ := NewDPSGD(DPSGDConfig{ClipNorm: 10, NoiseMultiplier: 0, SampleRate: 1, Delta: 1e-5}, r)
	for i := 0; i < 4; i++ {
		d.Weight.G.Data[0] = 2 // norm 2 < clip 10, untouched
		d.Bias.G.Data[0] = 0
		dp.AccumulateSample(d)
	}
	dp.Finalize(d, 4)
	if g := d.Weight.G.Data[0]; math.Abs(g-2) > 1e-12 {
		t.Fatalf("averaged gradient = %v, want 2", g)
	}
	if dp.Steps() != 1 {
		t.Fatalf("steps = %d, want 1", dp.Steps())
	}
}

func TestFinalizeAddsNoise(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := nn.NewDense("d", 1, 1)
	dp, _ := NewDPSGD(DPSGDConfig{ClipNorm: 1, NoiseMultiplier: 5, SampleRate: 1, Delta: 1e-5}, r)
	var values []float64
	for i := 0; i < 50; i++ {
		d.Weight.G.Data[0] = 0
		dp.AccumulateSample(d)
		dp.Finalize(d, 1)
		values = append(values, d.Weight.G.Data[0])
	}
	var variance float64
	for _, v := range values {
		variance += v * v
	}
	variance /= float64(len(values))
	// std should be σ·C = 5; variance ~25 (wide tolerance for 50 samples).
	if variance < 5 || variance > 80 {
		t.Fatalf("noise variance = %v, want ~25", variance)
	}
}

func TestRDPGaussianFullBatch(t *testing.T) {
	// q=1 reduces to the plain Gaussian mechanism: RDP(α) = steps·α/(2σ²).
	got := ComputeRDP(2, 1, 10, 4)
	want := 10.0 * 4 / (2 * 4)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("RDP = %v, want %v", got, want)
	}
}

func TestEpsilonMonotoneInSteps(t *testing.T) {
	e1 := ComputeEpsilon(1.1, 0.01, 100, 1e-5)
	e2 := ComputeEpsilon(1.1, 0.01, 1000, 1e-5)
	if e2 <= e1 {
		t.Fatalf("epsilon must grow with steps: %v vs %v", e1, e2)
	}
}

func TestEpsilonMonotoneInSigma(t *testing.T) {
	f := func(seed int64) bool {
		steps := 50 + int(seed%100+100)%100
		e1 := ComputeEpsilon(0.8, 0.02, steps, 1e-5)
		e2 := ComputeEpsilon(2.0, 0.02, steps, 1e-5)
		return e2 < e1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonZeroSteps(t *testing.T) {
	if e := ComputeEpsilon(1, 0.1, 0, 1e-5); e != 0 {
		t.Fatalf("no steps means no privacy spend, got %v", e)
	}
}

func TestEpsilonInfiniteWithoutNoise(t *testing.T) {
	if e := ComputeEpsilon(0, 0.1, 10, 1e-5); !math.IsInf(e, 1) {
		t.Fatalf("sigma=0 should give infinite epsilon, got %v", e)
	}
}

func TestEpsilonSanityRange(t *testing.T) {
	// A standard setting (σ=1.1, q=0.01, 10k steps, δ=1e-5) should land in
	// the single-digit epsilon range, matching published DP-SGD accounting.
	e := ComputeEpsilon(1.1, 0.01, 10000, 1e-5)
	if e < 0.5 || e > 20 {
		t.Fatalf("epsilon = %v, expected single digits", e)
	}
}

func TestNoiseForEpsilonInverts(t *testing.T) {
	const q, steps, delta = 0.02, 500, 1e-5
	for _, target := range []float64{1, 8, 64} {
		sigma := NoiseForEpsilon(target, q, steps, delta)
		got := ComputeEpsilon(sigma, q, steps, delta)
		if got > target*1.05 {
			t.Fatalf("target ε=%v: σ=%v gives ε=%v", target, sigma, got)
		}
	}
}

func TestSharedAccountantAcrossModules(t *testing.T) {
	// One DPSGD instance serving two differently shaped modules must keep
	// their lot sums separate (the buffers are rebuilt on shape change).
	r := rand.New(rand.NewSource(9))
	big := nn.NewMLP("a", []int{4, 8, 1}, nn.ReLU, nn.Identity, r)
	small := nn.NewMLP("b", []int{2, 1}, nn.Identity, nn.Identity, r)
	dp, _ := NewDPSGD(DPSGDConfig{ClipNorm: 10, NoiseMultiplier: 0, SampleRate: 1, Delta: 1e-5}, r)

	for _, p := range big.Params() {
		p.G.Fill(1)
	}
	dp.AccumulateSample(big)
	dp.Finalize(big, 1)

	for _, p := range small.Params() {
		p.G.Fill(2)
	}
	dp.AccumulateSample(small)
	dp.Finalize(small, 1)
	// The small module's finalized gradient must be exactly its own
	// contribution (all-2 over 3 scalars has norm √12 < clip 10, so it is
	// unclipped), untouched by the big module's numbers.
	for _, p := range small.Params() {
		for _, g := range p.G.Data {
			if g != 2 {
				t.Fatalf("small module gradient polluted: %v", g)
			}
		}
	}
	if dp.Steps() != 2 {
		t.Fatalf("steps = %d, want 2 (one per module finalize)", dp.Steps())
	}
}

func TestDPSGDTrainingStillLearns(t *testing.T) {
	// With generous clip and mild noise, DP-SGD should still reduce loss on
	// a linear problem.
	r := rand.New(rand.NewSource(4))
	m := nn.NewMLP("m", []int{1, 1}, nn.Identity, nn.Identity, r)
	dp, _ := NewDPSGD(DPSGDConfig{ClipNorm: 5, NoiseMultiplier: 0.1, SampleRate: 1, Delta: 1e-5}, r)
	// Plain gradient descent, lr 0.05.
	sgdStep := func() {
		for _, p := range m.Params() {
			p.W.AddScaled(p.G, -0.05)
			p.ZeroGrad()
		}
	}

	x := mat.New(8, 1)
	y := mat.New(8, 1)
	for i := 0; i < 8; i++ {
		x.Set(i, 0, float64(i))
		y.Set(i, 0, 2*float64(i)+1)
	}
	lossAt := func() float64 {
		l, _ := nn.MSELoss(m.Forward(x), y)
		return l
	}
	before := lossAt()
	for it := 0; it < 200; it++ {
		for i := 0; i < 8; i++ {
			xi := mat.NewFrom(1, 1, []float64{x.Row(i)[0]})
			yi := mat.NewFrom(1, 1, []float64{y.Row(i)[0]})
			_, grad := nn.MSELoss(m.Forward(xi), yi)
			m.Backward(grad)
			dp.AccumulateSample(m)
		}
		dp.Finalize(m, 8)
		sgdStep()
	}
	after := lossAt()
	if after >= before/4 {
		t.Fatalf("DP-SGD failed to learn: %v -> %v", before, after)
	}
	if dp.Epsilon() <= 0 {
		t.Fatal("epsilon must be positive after training")
	}
}
