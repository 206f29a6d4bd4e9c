package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// numericalGrad computes ∂loss/∂θ for every parameter of m by central
// differences, where loss is recomputed by forward().
func numericalGrad(m Module, forward func() float64) [][]float64 {
	const h = 1e-5
	var grads [][]float64
	for _, p := range m.Params() {
		g := make([]float64, len(p.W.Data))
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			lp := forward()
			p.W.Data[i] = orig - h
			lm := forward()
			p.W.Data[i] = orig
			g[i] = (lp - lm) / (2 * h)
		}
		grads = append(grads, g)
	}
	return grads
}

func checkGrads(t *testing.T, m Module, analytic func(), forward func() float64, tol float64) {
	t.Helper()
	ZeroGrads(m)
	analytic()
	numeric := numericalGrad(m, forward)
	for pi, p := range m.Params() {
		for i := range p.G.Data {
			a, n := p.G.Data[i], numeric[pi][i]
			denom := math.Max(math.Max(math.Abs(a), math.Abs(n)), 1e-4)
			if rel := math.Abs(a-n) / denom; rel > tol {
				t.Fatalf("param %q[%d]: analytic %v vs numeric %v (rel %v)", p.Name, i, a, n, rel)
			}
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := NewDense("d", 4, 3)
	InitXavier(d, r)
	x := mat.New(5, 4)
	x.RandNorm(r, 1)
	target := mat.New(5, 3)
	target.RandNorm(r, 1)

	forward := func() float64 {
		loss, _ := MSELoss(d.Forward(x), target)
		return loss
	}
	analytic := func() {
		_, grad := MSELoss(d.Forward(x), target)
		d.Backward(grad)
	}
	checkGrads(t, d, analytic, forward, 1e-5)
}

func TestDenseInputGradCheck(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	d := NewDense("d", 3, 2)
	InitXavier(d, r)
	x := mat.New(2, 3)
	x.RandNorm(r, 1)
	target := mat.New(2, 2)
	target.RandNorm(r, 1)

	_, grad := MSELoss(d.Forward(x), target)
	dx := d.Backward(grad)

	const h = 1e-5
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp, _ := MSELoss(d.Forward(x), target)
		x.Data[i] = orig - h
		lm, _ := MSELoss(d.Forward(x), target)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(dx.Data[i]-num) > 1e-6*math.Max(1, math.Abs(num)) {
			t.Fatalf("dX[%d]: analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
}

func TestMLPGradCheck(t *testing.T) {
	for _, act := range []ActKind{ReLU, LeakyReLU, Tanh, Sigmoid} {
		t.Run(act.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(3))
			m := NewMLP("m", []int{3, 5, 2}, act, Identity, r)
			x := mat.New(4, 3)
			x.RandNorm(r, 1)
			target := mat.New(4, 2)
			target.RandNorm(r, 1)
			forward := func() float64 {
				loss, _ := MSELoss(m.Forward(x), target)
				return loss
			}
			analytic := func() {
				_, grad := MSELoss(m.Forward(x), target)
				m.Backward(grad)
			}
			// ReLU kinks make gradient checks slightly noisier.
			checkGrads(t, m, analytic, forward, 1e-3)
		})
	}
}

func TestGRUGradCheck(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := NewGRU("g", 3, 4)
	InitXavier(g, r)
	const T, batch = 3, 2
	xs := make([]*mat.Matrix, T)
	for t2 := range xs {
		xs[t2] = mat.New(batch, 3)
		xs[t2].RandNorm(r, 1)
	}
	targets := make([]*mat.Matrix, T)
	for t2 := range targets {
		targets[t2] = mat.New(batch, 4)
		targets[t2].RandNorm(r, 1)
	}

	forward := func() float64 {
		hs := g.Forward(xs, nil)
		var total float64
		for t2, h := range hs {
			loss, _ := MSELoss(h, targets[t2])
			total += loss
		}
		return total
	}
	analytic := func() {
		hs := g.Forward(xs, nil)
		dhs := make([]*mat.Matrix, T)
		for t2, h := range hs {
			_, grad := MSELoss(h, targets[t2])
			dhs[t2] = grad
		}
		g.Backward(dhs)
	}
	checkGrads(t, g, analytic, forward, 1e-4)
}

// TestGradientPenaltyGradCheck verifies that GradientPenalty accumulates
// exactly the θ-gradient of its frozen surrogate loss
//
//	L̃(θ) = λ/(n·h) · Σ_i scale_i · (D_θ(pert_i) − D_θ(interp_i))
//
// where interp, pert = interp + h·∇x̂D, and scale are all evaluated at the
// starting parameters θ0 and then held fixed. Every mat kernel runs its
// rows in one serial pass, so the check runs once, as the serial case.
func TestGradientPenaltyGradCheck(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		r := rand.New(rand.NewSource(11))
		critic := NewMLP("c", []int{3, 5, 1}, LeakyReLU, Identity, r)
		const n, lambda = 4, 10.0
		real := mat.New(n, 3)
		real.RandNorm(r, 1)
		fake := mat.New(n, 3)
		fake.RandNorm(r, 1)

		// Reconstruct the frozen surrogate at θ0, replaying the same
		// interpolation draws GradientPenalty will see.
		uSeed := int64(77)
		u2 := rand.New(rand.NewSource(uSeed))
		interp := mat.New(n, 3)
		for i := 0; i < n; i++ {
			ti := u2.Float64()
			rr, fr, ir := real.Row(i), fake.Row(i), interp.Row(i)
			for j := range ir {
				ir[j] = rr[j] + ti*(fr[j]-rr[j])
			}
		}
		ZeroGrads(critic)
		out := critic.Forward(interp)
		ones := mat.New(out.Rows, out.Cols)
		ones.Fill(1)
		gIn := critic.Backward(ones).Clone()
		ZeroGrads(critic) // discard probe-pass parameter gradients

		const h = 1e-2 // must match GradientPenalty's internal step
		const eps = 1e-12
		scale := make([]float64, n)
		for i := 0; i < n; i++ {
			norm := mat.VecNorm(gIn.Row(i))
			scale[i] = 2 * (norm - 1) / math.Max(norm, eps)
		}
		pert := interp.Clone()
		pert.AddScaled(gIn, h)

		surrogate := func() float64 {
			var s float64
			op := critic.Forward(pert)
			for i := 0; i < n; i++ {
				s += scale[i] * op.Row(i)[0]
			}
			oi := critic.Forward(interp)
			for i := 0; i < n; i++ {
				s -= scale[i] * oi.Row(i)[0]
			}
			return lambda * s / (n * h)
		}
		analytic := func() {
			u := rand.New(rand.NewSource(uSeed))
			GradientPenalty(critic, real, fake, lambda, u.Float64)
		}
		checkGrads(t, critic, analytic, surrogate, 1e-3)
	})
}

func TestGRUInputGradCheck(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := NewGRU("g", 2, 3)
	InitXavier(g, r)
	const T, batch = 2, 1
	xs := make([]*mat.Matrix, T)
	for i := range xs {
		xs[i] = mat.New(batch, 2)
		xs[i].RandNorm(r, 1)
	}
	target := mat.New(batch, 3)
	target.RandNorm(r, 1)

	lossAt := func() float64 {
		hs := g.Forward(xs, nil)
		loss, _ := MSELoss(hs[T-1], target)
		return loss
	}
	hs := g.Forward(xs, nil)
	_, grad := MSELoss(hs[T-1], target)
	dhs := make([]*mat.Matrix, T)
	dhs[T-1] = grad
	dxs := g.Backward(dhs)

	const h = 1e-5
	for ti := 0; ti < T; ti++ {
		for i := range xs[ti].Data {
			orig := xs[ti].Data[i]
			xs[ti].Data[i] = orig + h
			lp := lossAt()
			xs[ti].Data[i] = orig - h
			lm := lossAt()
			xs[ti].Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(dxs[ti].Data[i]-num) > 1e-5*math.Max(1, math.Abs(num)) {
				t.Fatalf("t=%d dX[%d]: analytic %v vs numeric %v", ti, i, dxs[ti].Data[i], num)
			}
		}
	}
}

func TestOutputHeadGradCheck(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	schema := []FieldSpec{
		{Name: "c1", Kind: FieldContinuous, Size: 2},
		{Name: "cat", Kind: FieldCategorical, Size: 3},
		{Name: "c2", Kind: FieldContinuous, Size: 1},
	}
	head := NewOutputHead(schema)
	x := mat.New(3, 6)
	x.RandNorm(r, 1)
	target := mat.New(3, 6)
	target.RandNorm(r, 0.5)

	lossAt := func() float64 {
		loss, _ := MSELoss(head.Forward(x), target)
		return loss
	}
	_, grad := MSELoss(head.Forward(x), target)
	dx := head.Backward(grad)

	const h = 1e-5
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := lossAt()
		x.Data[i] = orig - h
		lm := lossAt()
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(dx.Data[i]-num) > 1e-6*math.Max(1, math.Abs(num)) {
			t.Fatalf("head dX[%d]: analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
}
