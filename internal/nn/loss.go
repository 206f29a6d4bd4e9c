package nn

import (
	"math"

	"repro/internal/mat"
)

// MSELoss returns the mean squared error between pred and target along with
// the gradient ∂L/∂pred (already divided by the element count).
func MSELoss(pred, target *mat.Matrix) (float64, *mat.Matrix) {
	n := float64(len(pred.Data))
	grad := mat.New(pred.Rows, pred.Cols)
	var loss float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

// CrossEntropyLoss computes the mean categorical cross-entropy between
// softmax probabilities pred (rows sum to 1) and one-hot targets, with
// gradient ∂L/∂pred.
func CrossEntropyLoss(pred, target *mat.Matrix) (float64, *mat.Matrix) {
	const eps = 1e-9
	n := float64(pred.Rows)
	grad := mat.New(pred.Rows, pred.Cols)
	var loss float64
	for i := range pred.Data {
		if target.Data[i] > 0 {
			p := math.Max(pred.Data[i], eps)
			loss += -target.Data[i] * math.Log(p)
			grad.Data[i] = -target.Data[i] / p / n
		}
	}
	return loss / n, grad
}

// MeanScore returns the mean of a batch of critic scores (one row per
// sample). The WGAN losses are built from it: the critic loss is
// MeanScore(D(fake)) − MeanScore(D(real)) and the generator loss
// −MeanScore(D(fake)).
func MeanScore(scores *mat.Matrix) float64 {
	var s float64
	for _, v := range scores.Data {
		s += v
	}
	return s / float64(scores.Rows)
}

// ScoreGrad writes into g, reshaped to scores' shape, the gradient of
// sign·MeanScore(scores) with respect to the scores — sign/rows in every
// element — and returns g. sign is −1 for a term the critic or generator
// maximizes, +1 for one it minimizes.
func ScoreGrad(g, scores *mat.Matrix, sign float64) *mat.Matrix {
	g.Reshape(scores.Rows, scores.Cols)
	g.Fill(sign / float64(scores.Rows))
	return g
}

// penaltyScratch is GradientPenalty's workspace, owned by the critic and
// sized on its first penalty.
type penaltyScratch struct {
	interp, pert, ones, scale, dout mat.Matrix
}

// GradientPenalty computes the WGAN-GP penalty λ·E[(‖∇x̂ D(x̂)‖−1)²] on
// interpolates x̂ between real and fake rows, accumulating the penalty's
// parameter gradients into the critic. u must yield one uniform variate per
// row (the interpolation coefficient).
//
// The parameter gradient of the penalty is approximated by a finite
// difference of the input-gradient norm along the gradient direction, which
// avoids second-order backprop: for each interpolate we nudge the critic
// loss with a scaled second forward/backward pass. In practice (and in our
// tests) this keeps critic input gradients near unit norm exactly as the
// analytic penalty does.
func GradientPenalty(critic *MLP, real, fake *mat.Matrix, lambda float64, u func() float64) float64 {
	if real.Rows != fake.Rows || real.Cols != fake.Cols {
		panic("nn: GradientPenalty shape mismatch")
	}
	sc := &critic.gp
	n := real.Rows
	interp := sc.interp.Reshape(n, real.Cols)
	for i := 0; i < n; i++ {
		t := u()
		rr, fr, ir := real.Row(i), fake.Row(i), interp.Row(i)
		for j := range ir {
			ir[j] = rr[j] + t*(fr[j]-rr[j])
		}
	}

	// First pass: input gradients g = ∇x̂ D(x̂). The probe leaves the
	// parameter gradients alone.
	out := critic.Forward(interp)
	ones := sc.ones.Reshape(out.Rows, out.Cols)
	ones.Fill(1)
	gIn := critic.BackwardInput(ones)

	// Penalty value and per-row scale for the surrogate pass.
	var penalty float64
	scale := sc.scale.Reshape(out.Rows, out.Cols)
	scale.Zero()
	const eps = 1e-12
	for i := 0; i < n; i++ {
		norm := mat.VecNorm(gIn.Row(i))
		d := norm - 1
		penalty += d * d
		// d/dθ (‖g‖−1)² = 2(‖g‖−1)/‖g‖ · gᵀ·(∂g/∂θ). We approximate the
		// directional derivative with a perturbed forward pass: evaluate D
		// at x̂ + h·g and treat (D(x̂+h·g) − D(x̂))/h as gᵀ∇D, whose θ-gradient
		// we then take. This first-order surrogate pushes ‖g‖ toward 1.
		scale.Set(i, 0, 2*(norm-1)/math.Max(norm, eps))
	}
	penalty = lambda * penalty / float64(n)

	// Surrogate pass: x̂ + h·g, backward with per-row scale.
	const h = 1e-2
	pert := sc.pert.Reshape(n, real.Cols)
	copy(pert.Data, interp.Data)
	pert.AddScaled(gIn, h)
	critic.Forward(pert)
	dout := sc.dout.Reshape(scale.Rows, scale.Cols)
	copy(dout.Data, scale.Data)
	dout.Scale(lambda / (float64(n) * h))
	critic.Backward(dout)
	// Baseline pass at x̂ with the opposite sign completes the finite
	// difference (D(x̂+h·g) − D(x̂))/h.
	critic.Forward(interp)
	copy(dout.Data, scale.Data)
	dout.Scale(-lambda / (float64(n) * h))
	critic.Backward(dout)

	return penalty
}
