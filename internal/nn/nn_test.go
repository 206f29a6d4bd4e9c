package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mat"
)

func TestSnapshotRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := NewMLP("m", []int{2, 4, 1}, ReLU, Identity, r)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(TakeSnapshot(m)); err != nil {
		t.Fatal(err)
	}
	var dec Snapshot
	if err := gob.NewDecoder(&buf).Decode(&dec); err != nil {
		t.Fatal(err)
	}

	m2 := NewMLP("m", []int{2, 4, 1}, ReLU, Identity, rand.New(rand.NewSource(99)))
	if err := dec.Restore(m2); err != nil {
		t.Fatal(err)
	}
	x := mat.New(3, 2)
	x.RandNorm(r, 1)
	y1, y2 := m.Forward(x), m2.Forward(x)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("restored model must produce identical output")
		}
	}
}

func TestSnapshotRestoreRejectsMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := NewMLP("m", []int{2, 4, 1}, ReLU, Identity, r)
	other := NewMLP("m", []int{2, 5, 1}, ReLU, Identity, r)
	if err := TakeSnapshot(m).Restore(other); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	renamed := NewMLP("x", []int{2, 4, 1}, ReLU, Identity, r)
	if err := TakeSnapshot(m).Restore(renamed); err == nil {
		t.Fatal("expected name mismatch error")
	}
}

func TestClipGradNorm(t *testing.T) {
	d := NewDense("d", 2, 2)
	d.Weight.G.Fill(3)
	d.Bias.G.Fill(4)
	pre := GradNorm(d)
	got := ClipGradNorm(d, 1)
	if math.Abs(got-pre) > 1e-12 {
		t.Fatalf("ClipGradNorm returned %v, want pre-clip %v", got, pre)
	}
	if post := GradNorm(d); math.Abs(post-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v, want 1", post)
	}
	// Below the threshold: unchanged.
	d.Weight.G.Zero()
	d.Bias.G.Zero()
	d.Weight.G.Data[0] = 0.5
	ClipGradNorm(d, 1)
	if d.Weight.G.Data[0] != 0.5 {
		t.Fatal("small gradients must not be rescaled")
	}
}

func TestAdamLearnsRegression(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m := NewMLP("m", []int{1, 16, 1}, Tanh, Identity, r)
	const n = 32
	x := mat.New(n, 1)
	y := mat.New(n, 1)
	for i := 0; i < n; i++ {
		v := float64(i)/n*4 - 2
		x.Set(i, 0, v)
		y.Set(i, 0, math.Sin(v))
	}
	opt := NewAdam(0.01)
	opt.Beta1 = 0.9
	loss0, _ := MSELoss(m.Forward(x), y)
	for i := 0; i < 800; i++ {
		_, grad := MSELoss(m.Forward(x), y)
		m.Backward(grad)
		opt.Step(m)
	}
	loss1, _ := MSELoss(m.Forward(x), y)
	if loss1 > loss0/10 {
		t.Fatalf("Adam failed to fit sin: %v -> %v", loss0, loss1)
	}
}

func TestAdamStepZeroesGrads(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := NewMLP("m", []int{2, 2}, Identity, Identity, r)
	x := mat.New(1, 2)
	x.RandNorm(r, 1)
	target := mat.New(1, 2)
	_, grad := MSELoss(m.Forward(x), target)
	m.Backward(grad)
	NewAdam(0.001).Step(m)
	for _, p := range m.Params() {
		for _, g := range p.G.Data {
			if g != 0 {
				t.Fatal("Step must zero gradients")
			}
		}
	}
}

// TestAdamResetRecapturesModule: Reset drops the captured parameters and
// moments, so the next Step binds the optimizer to the module it is given
// and updates it exactly as a new optimizer would.
func TestAdamResetRecapturesModule(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	a := NewMLP("a", []int{3, 4, 2}, ReLU, Identity, r)
	b := NewMLP("b", []int{3, 4, 2}, ReLU, Identity, r)
	c := b.Clone()
	step := func(opt *Adam, m Module) {
		for _, p := range m.Params() {
			for i := range p.G.Data {
				p.G.Data[i] = float64(i%5) - 2
			}
		}
		opt.Step(m)
	}
	opt := NewAdam(0.01)
	step(opt, a)
	opt.Reset()
	step(opt, b)
	step(NewAdam(0.01), c)
	if !reflect.DeepEqual(TakeSnapshot(b).Data, TakeSnapshot(c).Data) {
		t.Fatal("a reset optimizer's step differs from a new optimizer's")
	}
}

// BenchmarkAdamStep times one Adam step on a 196-32-32-1 critic, the
// flow model's main critic at DefaultConfig's width. Each iteration first
// restores the same gradients (the step zeroes them), so the moments stay
// at training's magnitudes instead of decaying into subnormals.
func BenchmarkAdamStep(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	m := NewMLP("d", []int{196, 32, 32, 1}, LeakyReLU, Identity, r)
	ps := m.Params()
	grads := make([][]float64, len(ps))
	for i, p := range ps {
		grads[i] = make([]float64, len(p.G.Data))
		for j := range grads[i] {
			grads[i][j] = 1e-2 * r.NormFloat64()
		}
	}
	opt := NewAdam(1e-4)
	b.ReportAllocs()
	for b.Loop() {
		for i, p := range ps {
			copy(p.G.Data, grads[i])
		}
		opt.Step(m)
	}
}

func TestCrossEntropyLoss(t *testing.T) {
	pred := mat.NewFrom(1, 3, []float64{0.7, 0.2, 0.1})
	target := mat.NewFrom(1, 3, []float64{1, 0, 0})
	loss, grad := CrossEntropyLoss(pred, target)
	if math.Abs(loss+math.Log(0.7)) > 1e-9 {
		t.Fatalf("CE loss = %v", loss)
	}
	if grad.Data[0] >= 0 || grad.Data[1] != 0 {
		t.Fatalf("CE grad = %v", grad.Data)
	}
}

func TestWassersteinLosses(t *testing.T) {
	dReal := mat.NewFrom(2, 1, []float64{1, 3})
	dFake := mat.NewFrom(2, 1, []float64{0, 2})
	if loss := MeanScore(dFake) - MeanScore(dReal); math.Abs(loss-(1-2)) > 1e-12 {
		t.Fatalf("critic loss = %v, want -1", loss)
	}
	var g mat.Matrix
	if gr := ScoreGrad(&g, dReal, -1); gr.Rows != 2 || gr.Cols != 1 || gr.Data[0] != -0.5 || gr.Data[1] != -0.5 {
		t.Fatalf("real-score grad = %+v", gr)
	}
	if gf := ScoreGrad(&g, dFake, 1); gf.Data[0] != 0.5 {
		t.Fatalf("fake-score grad = %v", gf.Data)
	}
	if gloss := -MeanScore(dFake); math.Abs(gloss+1) > 1e-12 {
		t.Fatalf("gen loss = %v, want -1", gloss)
	}
	// A smaller batch reshapes the same buffer.
	if gg := ScoreGrad(&g, mat.New(1, 1), -1); gg.Rows != 1 || gg.Data[0] != -1 {
		t.Fatalf("gen grad = %+v", gg)
	}
}

func TestGradientPenaltyDrivesUnitNorm(t *testing.T) {
	// Train a tiny critic only on the gradient penalty; its input-gradient
	// norm on interpolates should approach 1.
	r := rand.New(rand.NewSource(7))
	critic := NewMLP("c", []int{2, 8, 1}, LeakyReLU, Identity, r)
	// Scale the weights up so the initial gradient norm differs from 1.
	for _, p := range critic.Params() {
		p.W.Scale(3)
	}
	real := mat.New(8, 2)
	fake := mat.New(8, 2)
	real.RandNorm(r, 1)
	fake.RandNorm(r, 1)
	opt := NewAdam(0.005)

	gradNormAt := func() float64 {
		out := critic.Forward(real)
		ones := mat.New(out.Rows, out.Cols)
		ones.Fill(1)
		gIn := critic.BackwardInput(ones)
		var total float64
		for i := 0; i < gIn.Rows; i++ {
			total += mat.VecNorm(gIn.Row(i))
		}
		return total / float64(gIn.Rows)
	}

	before := math.Abs(gradNormAt() - 1)
	for i := 0; i < 300; i++ {
		ZeroGrads(critic)
		GradientPenalty(critic, real, fake, 10, r.Float64)
		opt.Step(critic)
	}
	after := math.Abs(gradNormAt() - 1)
	if after >= before {
		t.Fatalf("gradient penalty did not drive norm toward 1: |Δ| %v -> %v", before, after)
	}
	if after > 0.5 {
		t.Fatalf("gradient norm still far from 1: off by %v", after)
	}
}

func TestSampleRow(t *testing.T) {
	schema := []FieldSpec{
		{Name: "c", Kind: FieldContinuous, Size: 1},
		{Name: "k", Kind: FieldCategorical, Size: 3},
	}
	row := []float64{0.42, 0.1, 0.7, 0.2}
	// u=0.05 lands in the first bucket.
	got := make([]float64, len(row))
	SampleRow(got, schema, row, func() float64 { return 0.05 })
	if got[0] != 0.42 {
		t.Fatal("continuous value must pass through")
	}
	if got[1] != 1 {
		t.Fatalf("stochastic pick = %v, want bucket 0", got[1:])
	}
	// u=0.99 lands in the last bucket.
	SampleRow(got, schema, row, func() float64 { return 0.99 })
	if got[3] != 1 || got[1] != 0 {
		t.Fatalf("stochastic pick = %v, want bucket 2", got[1:])
	}
}

func TestWidth(t *testing.T) {
	schema := []FieldSpec{{Size: 2}, {Size: 3}, {Size: 1}}
	if Width(schema) != 6 {
		t.Fatalf("Width = %d", Width(schema))
	}
}

func TestGRUResetBetweenSequences(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := NewGRU("g", 2, 3)
	InitXavier(g, r)
	x := mat.New(1, 2)
	x.RandNorm(r, 1)
	// Forward reuses its output buffers, so keep a copy of the first run.
	h1 := g.Forward([]*mat.Matrix{x}, nil)[0].Clone()
	h2 := g.Forward([]*mat.Matrix{x}, nil)
	for i := range h1.Data {
		if h1.Data[i] != h2[0].Data[i] {
			t.Fatal("Forward must reset state between sequences")
		}
	}
}
