package mat

import (
	"fmt"
	"math"
)

// AdamCoeffs are the constants of one Adam step (Kingma & Ba): the moment
// decay rates B1 and B2 with their complements C1 = 1 − B1 and
// C2 = 1 − B2, the bias corrections BC1 = 1 − B1ᵗ and BC2 = 1 − B2ᵗ of
// step t, the learning rate LR and Eps.
type AdamCoeffs struct {
	B1, C1, B2, C2, BC1, BC2, LR, Eps float64
}

// AdamUpdate applies one Adam step to the weights w from their gradients
// g and updates the moment estimates m1 and m2 (all of one length), then
// sets every gradient to +0. Element by element it computes
//
//	m1 = B1·m1 + C1·g
//	m2 = B2·m2 + (C2·g)·g
//	w  = w − (LR·(m1/BC1)) / (√(m2/BC2) + Eps)
//
// with every operation separately rounded, so each kernel set gives the
// same bits.
func AdamUpdate(w, g, m1, m2 []float64, c *AdamCoeffs) {
	if len(g) != len(w) || len(m1) != len(w) || len(m2) != len(w) {
		panic(fmt.Sprintf("mat: AdamUpdate lengths w=%d g=%d m1=%d m2=%d", len(w), len(g), len(m1), len(m2)))
	}
	kernels.adam(w, g, m1, m2, c)
}

// adamGo is the pure-Go reference of kernelSet.adam.
func adamGo(w, g, m1, m2 []float64, c *AdamCoeffs) {
	b1, c1, b2, c2, bc1, bc2, lr, eps := c.B1, c.C1, c.B2, c.C2, c.BC1, c.BC2, c.LR, c.Eps
	g, m1, m2 = g[:len(w)], m1[:len(w)], m2[:len(w)]
	for i, gi := range g {
		v1 := b1*m1[i] + c1*gi
		v2 := b2*m2[i] + c2*gi*gi
		m1[i], m2[i] = v1, v2
		w[i] -= lr * (v1 / bc1) / (math.Sqrt(v2/bc2) + eps)
		g[i] = 0
	}
}
