package mat

import "math"

// Row-wise float32 activations of the serving fast path (DESIGN.md §11):
// the GRU's gates, the metadata MLP's ReLUs and sigmoids, the output
// head's sigmoids and the softmax's exponentials. Each runs its kernel
// set's leaf once per row, in place. Every set computes the same bits as
// the pure-Go references (tanh32, sigmoid32 and exp32 below, reluGo and
// leakyReluGo in activation64.go), except that a NaN may carry another
// payload.

// Sigmoid32 sets each element x of row to sigmoid32(x).
func Sigmoid32(row []float32) { kernels.sigmoid32(row) }

// Tanh32 sets each element x of row to tanh32(x).
func Tanh32(row []float32) { kernels.tanh32(row) }

// Exp32 sets each element x of row to exp32(x).
func Exp32(row []float32) { kernels.exp32(row) }

// ReLU32 sets each element of row that is less than +0 to +0.
func ReLU32(row []float32) { kernels.relu32(row) }

// LeakyReLU32 multiplies each element of row that is less than +0 by
// slope.
func LeakyReLU32(row []float32, slope float32) { kernels.leakyRelu32(row, slope) }

// tanh32 approximates tanh with the 7th-order Lambert continued-fraction
// expansion. Beyond |x| > 4.97 it saturates to ±1, which also keeps the
// rational form from diverging for large inputs. Its largest absolute
// error against math.Tanh, on a 1e-5 grid over [−12, 12], is 9.6e-5, at
// x = −4.97 next to the clamp; it keeps the sign of ±0 and passes NaN
// through.
func tanh32(x float32) float32 {
	if x > 4.97 {
		return 1
	}
	if x < -4.97 {
		return -1
	}
	x2 := x * x
	p := x * (135135 + x2*(17325+x2*(378+x2)))
	q := 135135 + x2*(62370+x2*(3150+28*x2))
	return p / q
}

// sigmoid32 is the logistic function via its tanh identity. Its largest
// absolute error against the float64 logistic function on the same grid
// is 4.8e-5, at x = 9.94, where tanh32(x/2) saturates.
func sigmoid32(x float32) float32 {
	return 0.5 + 0.5*tanh32(0.5*x)
}

// exp32's constants: log₂e; ln 2 split Cody–Waite style into expLn2Hi,
// whose 9 significant bits make n·expLn2Hi exact for every n in range, and
// the remainder expLn2Lo; the round-to-even shifter 1.5·2²³; Cephes
// expf's polynomial for (eʳ − 1 − r)/r² on [−ln2/2, ln2/2]; and the
// largest and smallest float32 whose eˣ, correctly rounded, is finite
// and nonzero.
const (
	expLog2e = 1.44269504088896341
	expLn2Hi = 0.693359375
	expLn2Lo = -2.12194440e-4
	expRound = 0x1.8p23
	expP0    = 1.9875691500e-4
	expP1    = 1.3981999507e-3
	expP2    = 8.3334519073e-3
	expP3    = 4.1665795894e-2
	expP4    = 1.6666665459e-1
	expP5    = 5.0000001201e-1
	expHi    = 88.72283172607421875
	expLo    = -103.972076416015625
)

// exp32 approximates eˣ in float32 arithmetic. It reduces x to
// r = x − n·ln2 with n = x·log₂e rounded to even (by adding and
// subtracting expRound), evaluates 1 + r + r²·P(r) by Horner's rule and
// scales by 2ⁿ, built as two powers of two in the exponent bits so that
// both stay normal down to the subnormal results. Every operation is a
// separately rounded float32 multiply, add or subtract, never fused, so
// the AVX2 kernel repeats it bit for bit. Its error is at most 2 ulp of
// math.Exp on [−87, 88]. x above expHi (+Inf included) gives +Inf, x
// below expLo (−Inf included) gives +0, and NaN gives x.
func exp32(x float32) float32 {
	switch {
	case x != x:
		return x
	case x > expHi:
		return float32(math.Inf(1))
	case x < expLo:
		return 0
	}
	t := x*expLog2e + expRound
	n := t - expRound
	ni := int32(math.Float32bits(t) - math.Float32bits(expRound))
	r := x - n*expLn2Hi
	r = r - n*expLn2Lo
	z := r * r
	y := expP0*r + expP1
	y = y*r + expP2
	y = y*r + expP3
	y = y*r + expP4
	y = y*r + expP5
	y = y*z + r + 1
	a := ni >> 1
	y = y * math.Float32frombits(uint32(a+127)<<23)
	return y * math.Float32frombits(uint32(ni-a+127)<<23)
}

func sigmoid32Go(row []float32) {
	for i, v := range row {
		row[i] = sigmoid32(v)
	}
}

func tanh32Go(row []float32) {
	for i, v := range row {
		row[i] = tanh32(v)
	}
}

func exp32Go(row []float32) {
	for i, v := range row {
		row[i] = exp32(v)
	}
}
