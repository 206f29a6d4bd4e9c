package nn

import (
	"fmt"

	"repro/internal/mat"
)

// ActKind selects an elementwise activation.
type ActKind int

// Supported activations.
const (
	ReLU ActKind = iota
	LeakyReLU
	Tanh
	Sigmoid
	Identity
)

// String returns the activation name.
func (k ActKind) String() string {
	switch k {
	case ReLU:
		return "relu"
	case LeakyReLU:
		return "leaky_relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	case Identity:
		return "identity"
	}
	return fmt.Sprintf("ActKind(%d)", int(k))
}

const leakySlope = 0.2

// activation is an MLP layer's elementwise nonlinearity. It is applied in
// place on the Dense output it follows and caches that output for the
// backward pass.
type activation struct {
	kind  ActKind
	lastY *mat.Matrix
}

// forward activates y in place, caches it and returns it.
func (a *activation) forward(y *mat.Matrix) *mat.Matrix {
	applyActKind(a.kind, y.Data)
	a.lastY = y
	return y
}

// backward turns d from ∂L/∂Y into ∂L/∂X in place, using the cached
// output, and returns it.
func (a *activation) backward(d *mat.Matrix) *mat.Matrix {
	if a.lastY == nil {
		panic("nn: activation backward before forward")
	}
	dx := d.Data
	y := a.lastY.Data[:len(dx)]
	switch a.kind {
	case ReLU:
		mat.ReLUGrad(dx, y)
	case LeakyReLU:
		mat.LeakyReLUGrad(dx, y, leakySlope)
	case Tanh:
		for i, v := range y {
			dx[i] *= 1 - v*v
		}
	case Sigmoid:
		for i, v := range y {
			dx[i] *= v * (1 - v)
		}
	case Identity:
		// gradient passes through unchanged
	}
	return d
}
