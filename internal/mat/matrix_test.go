package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Mul, MulTransA and MulTransB are allocating forms of the Into
// kernels, the references the kernel tests compare against.

// Mul returns a·b.
func Mul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	MulInto(dst, a, b)
	return dst
}

// MulTransA returns aᵀ·b.
func MulTransA(a, b *Matrix) *Matrix {
	dst := New(a.Cols, b.Cols)
	MulTransAInto(dst, a, b)
	return dst
}

// MulTransB returns a·bᵀ.
func MulTransB(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Rows)
	MulTransBInto(dst, a, b)
	return dst
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7)
	if m.Row(1)[2] != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.Row(1)[2])
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row(1)[2] = %v, want 7", row[2])
	}
	row[0] = 3 // aliasing
	if m.Row(1)[0] != 3 {
		t.Fatal("Row must alias the matrix")
	}
}

func TestNewFromAndClone(t *testing.T) {
	m := NewFrom(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.Row(0)[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestNewFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFrom(2, 2, []float64{1, 2, 3})
}

func TestMul(t *testing.T) {
	a := NewFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("Mul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMulTransA(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := New(4, 3)
	a.RandNorm(r, 1)
	b := New(4, 2)
	b.RandNorm(r, 1)
	got := MulTransA(a, b)
	// reference: explicit transpose
	at := New(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.Row(i)[j])
		}
	}
	want := Mul(at, b)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MulTransA[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMulTransB(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := New(3, 4)
	a.RandNorm(r, 1)
	b := New(2, 4)
	b.RandNorm(r, 1)
	got := MulTransB(a, b)
	bt := New(4, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			bt.Set(j, i, b.Row(i)[j])
		}
	}
	want := Mul(a, bt)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MulTransB[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewFrom(2, 2, []float64{5, 6, 7, 8})
	a.Add(b)
	if a.Row(0)[0] != 6 || a.Row(1)[1] != 12 {
		t.Fatalf("Add wrong: %v", a.Data)
	}
	a.Sub(b)
	if a.Row(0)[0] != 1 || a.Row(1)[1] != 4 {
		t.Fatalf("Sub wrong: %v", a.Data)
	}
	a.Scale(2)
	if a.Row(1)[0] != 6 {
		t.Fatalf("Scale wrong: %v", a.Data)
	}
	a.AddScaled(b, 0.5)
	if a.Row(0)[1] != 4+3 {
		t.Fatalf("AddScaled wrong: %v", a.Data)
	}
}

func TestAddRowVec(t *testing.T) {
	m := NewFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	m.AddRowVec([]float64{10, 20, 30})
	if m.Row(0)[0] != 11 || m.Row(1)[2] != 36 {
		t.Fatalf("AddRowVec wrong: %v", m.Data)
	}
}

func TestVecNorm(t *testing.T) {
	if !almostEqual(VecNorm([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("VecNorm wrong")
	}
}

func TestXavierBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := New(10, 10)
	m.Xavier(r, 10, 10)
	limit := math.Sqrt(6.0 / 20.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("Xavier value %v exceeds limit %v", v, limit)
		}
	}
}

// Property: matrix multiplication distributes over addition,
// A·(B+C) == A·B + A·C.
func TestMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(seed%3+3)%3
		a := New(n, n)
		b := New(n, n)
		c := New(n, n)
		a.RandNorm(r, 1)
		b.RandNorm(r, 1)
		c.RandNorm(r, 1)
		bc := b.Clone()
		bc.Add(c)
		left := Mul(a, bc)
		right := Mul(a, b)
		right.Add(Mul(a, c))
		for i := range left.Data {
			if !almostEqual(left.Data[i], right.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius norm satisfies the triangle inequality.
func TestNormTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := New(3, 3)
		b := New(3, 3)
		a.RandNorm(r, 2)
		b.RandNorm(r, 2)
		sum := a.Clone()
		sum.Add(b)
		return VecNorm(sum.Data) <= VecNorm(a.Data)+VecNorm(b.Data)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestCopyFrom(t *testing.T) {
	a := NewFrom(1, 2, []float64{1, 2})
	b := New(1, 2)
	b.CopyFrom(a)
	if b.Row(0)[1] != 2 {
		t.Fatal("CopyFrom failed")
	}
}

func TestZeroFill(t *testing.T) {
	m := NewFrom(1, 2, []float64{1, 2})
	m.Fill(9)
	if m.Row(0)[0] != 9 || m.Row(0)[1] != 9 {
		t.Fatal("Fill failed")
	}
	m.Zero()
	if m.Row(0)[0] != 0 || m.Row(0)[1] != 0 {
		t.Fatal("Zero failed")
	}
}
