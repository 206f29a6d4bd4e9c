package nn

import (
	"math"

	"repro/internal/mat"
)

// Adam implements the Adam optimizer (Kingma & Ba). The paper's GAN
// training (DoppelGANger, WGAN-GP baselines) uses Adam throughout.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t  int
	m1 map[*Param]*mat.Matrix
	m2 map[*Param]*mat.Matrix
}

// NewAdam returns an Adam optimizer with the WGAN-GP-customary betas
// (0.5, 0.9) unless overridden via the struct fields.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.5, Beta2: 0.9, Eps: 1e-8,
		m1: make(map[*Param]*mat.Matrix),
		m2: make(map[*Param]*mat.Matrix),
	}
}

// Step applies one update using the gradients accumulated in m's
// parameters, then zeroes them.
func (a *Adam) Step(m Module) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range m.Params() {
		m1 := a.m1[p]
		if m1 == nil {
			m1 = mat.New(p.W.Rows, p.W.Cols)
			a.m1[p] = m1
		}
		m2 := a.m2[p]
		if m2 == nil {
			m2 = mat.New(p.W.Rows, p.W.Cols)
			a.m2[p] = m2
		}
		for i, g := range p.G.Data {
			m1.Data[i] = a.Beta1*m1.Data[i] + (1-a.Beta1)*g
			m2.Data[i] = a.Beta2*m2.Data[i] + (1-a.Beta2)*g*g
			mhat := m1.Data[i] / bc1
			vhat := m2.Data[i] / bc2
			p.W.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// Reset clears optimizer state (moments and step counter), used when a
// model is warm-started from a snapshot and fine-tuning should begin with
// fresh optimizer statistics.
func (a *Adam) Reset() {
	a.t = 0
	a.m1 = make(map[*Param]*mat.Matrix)
	a.m2 = make(map[*Param]*mat.Matrix)
}
