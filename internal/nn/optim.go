package nn

import (
	"math"

	"repro/internal/mat"
)

// Adam implements the Adam optimizer (Kingma & Ba). The paper's GAN
// training (DoppelGANger, WGAN-GP baselines) uses Adam throughout.
//
// An Adam belongs to one module: the first Step after NewAdam or Reset
// captures that module's parameter list and allocates their moment
// buffers, and every later Step updates those parameters, whatever module
// it is passed.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t      int
	params []*Param
	m1, m2 []*mat.Matrix
	coeffs mat.AdamCoeffs
}

// NewAdam returns an Adam optimizer with the WGAN-GP-customary betas
// (0.5, 0.9) unless overridden via the struct fields.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.5, Beta2: 0.9, Eps: 1e-8}
}

// Step applies one update using the gradients accumulated in m's
// parameters, then zeroes them. Each parameter's update is one
// mat.AdamUpdate call.
func (a *Adam) Step(m Module) {
	if a.m1 == nil {
		a.params = m.Params()
		a.m1 = make([]*mat.Matrix, len(a.params))
		a.m2 = make([]*mat.Matrix, len(a.params))
		for i, p := range a.params {
			a.m1[i] = mat.New(p.W.Rows, p.W.Cols)
			a.m2[i] = mat.New(p.W.Rows, p.W.Cols)
		}
	}
	a.t++
	a.coeffs = mat.AdamCoeffs{
		B1: a.Beta1, C1: 1 - a.Beta1, B2: a.Beta2, C2: 1 - a.Beta2,
		BC1: 1 - math.Pow(a.Beta1, float64(a.t)),
		BC2: 1 - math.Pow(a.Beta2, float64(a.t)),
		LR:  a.LR, Eps: a.Eps,
	}
	for i, p := range a.params {
		mat.AdamUpdate(p.W.Data, p.G.Data, a.m1[i].Data, a.m2[i].Data, &a.coeffs)
	}
}

// Reset clears optimizer state (moments, step counter and the captured
// parameters), used when a model is warm-started from a snapshot and
// fine-tuning should begin with fresh optimizer statistics.
func (a *Adam) Reset() {
	a.t = 0
	a.params, a.m1, a.m2 = nil, nil, nil
}
