package mat

import "math"

// Row-wise float64 activations and activation gradients of training
// (internal/nn): the GRU's sigmoid and tanh gates, the output heads'
// sigmoids and softmax exponentials, and the MLPs' ReLU and LeakyReLU
// with their backward passes. Each runs its kernel set's leaf once per
// row, in place. Every set computes the same bits as the pure-Go
// references below, which are math.Exp, math.Tanh and the loops training
// ran before the leaves existed, except that a NaN may carry another
// payload: training's weights do not depend on the CPU's activations.

// Sigmoid sets each element x of row to sigmoid(x).
func Sigmoid(row []float64) { kernels.sigmoid(row) }

// Tanh sets each element x of row to math.Tanh(x).
func Tanh(row []float64) { kernels.tanh(row) }

// Exp sets each element x of row to math.Exp(x).
func Exp(row []float64) { kernels.exp(row) }

// ReLU sets each element of row that is less than +0 to +0. −0 and NaN
// stay as they are.
func ReLU(row []float64) { kernels.relu(row) }

// LeakyReLU multiplies each element of row that is less than +0 by slope.
func LeakyReLU(row []float64, slope float64) { kernels.leakyRelu(row, slope) }

// ReLUGrad turns dx from ∂L/∂y into ∂L/∂x for y = ReLU(x): it sets dx[i]
// to +0 wherever y[i] ≤ 0 (−0 included, NaN not). y must be at least as
// long as dx and must not overlap it.
func ReLUGrad(dx, y []float64) { kernels.reluGrad(dx, y[:len(dx)]) }

// LeakyReLUGrad is ReLUGrad for y = LeakyReLU(x, slope): it multiplies
// dx[i] by slope wherever y[i] ≤ 0.
func LeakyReLUGrad(dx, y []float64, slope float64) {
	kernels.leakyReluGrad(dx, y[:len(dx)], slope)
}

// sigmoid is the logistic function. It evaluates math.Exp only at −|v|,
// so the exponential never overflows.
func sigmoid(v float64) float64 {
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}

func sigmoidGo(row []float64) {
	for i, v := range row {
		row[i] = sigmoid(v)
	}
}

func tanhGo(row []float64) {
	for i, v := range row {
		row[i] = math.Tanh(v)
	}
}

func expGo(row []float64) {
	for i, v := range row {
		row[i] = math.Exp(v)
	}
}

// reluGo and leakyReluGo are the references of both precisions' ReLU
// and LeakyReLU leaves.
func reluGo[F float32 | float64](row []F) {
	for i, v := range row {
		if v < 0 {
			row[i] = 0
		}
	}
}

func leakyReluGo[F float32 | float64](row []F, slope F) {
	for i, v := range row {
		if v < 0 {
			row[i] = slope * v
		}
	}
}

func reluGradGo(dx, y []float64) {
	for i, v := range y {
		if v <= 0 {
			dx[i] = 0
		}
	}
}

func leakyReluGradGo(dx, y []float64, slope float64) {
	for i, v := range y {
		if v <= 0 {
			dx[i] *= slope
		}
	}
}
