package nn

import (
	"fmt"
	"math"

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

// Activation is a stateless elementwise nonlinearity with cached output
// for the backward pass.
type Activation struct {
	Kind  ActKind
	lastY *mat.Matrix
}

// NewActivation returns an Activation of the given kind.
func NewActivation(kind ActKind) *Activation { return &Activation{Kind: kind} }

// Params implements Module; activations are parameter-free.
func (a *Activation) Params() []*Param { return nil }

// Forward applies the activation to x, returning a new matrix.
func (a *Activation) Forward(x *mat.Matrix) *mat.Matrix {
	y := x.Clone()
	applyActKind(a.Kind, y.Data)
	a.lastY = y
	return y
}

// Backward returns ∂L/∂X given dout = ∂L/∂Y, using the cached output.
func (a *Activation) Backward(dout *mat.Matrix) *mat.Matrix {
	if a.lastY == nil {
		panic("nn: Activation.Backward before Forward")
	}
	dx := dout.Clone()
	y := a.lastY
	switch a.Kind {
	case ReLU:
		for i, v := range y.Data {
			if v <= 0 {
				dx.Data[i] = 0
			}
		}
	case LeakyReLU:
		for i, v := range y.Data {
			if v <= 0 {
				dx.Data[i] *= leakySlope
			}
		}
	case Tanh:
		for i, v := range y.Data {
			dx.Data[i] *= 1 - v*v
		}
	case Sigmoid:
		for i, v := range y.Data {
			dx.Data[i] *= v * (1 - v)
		}
	case Identity:
		// gradient passes through unchanged
	}
	return dx
}

func sigmoid(v float64) float64 {
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}
