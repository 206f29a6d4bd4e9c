package mat

import (
	"math"
	"math/rand"
	"testing"
)

// new32 returns a zero rows×cols float32 matrix.
func new32(rows, cols int) *Matrix32 {
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// mul32Value draws a float32 operand: N(0, 1), or with probability
// special/256 a ±0, a subnormal or a magnitude near 1e15, chosen so that
// no product of two operands, nor a sum of up to 130 of them, leaves
// float32's finite range.
func mul32Value(r *rand.Rand, special int) float32 {
	if r.Intn(256) >= special {
		return float32(r.NormFloat64())
	}
	sign := r.Uint32() & (1 << 31)
	switch r.Intn(3) {
	case 0:
		return math.Float32frombits(sign) // ±0
	case 1: // subnormal
		return math.Float32frombits(sign | 1 | r.Uint32()&(1<<23-1))
	default:
		return float32(r.NormFloat64() * 1e15)
	}
}

// mul32Operands returns random m×k and k×n operands for MulInto32.
func mul32Operands(r *rand.Rand, m, k, n, special int) (a, b *Matrix32) {
	a, b = new32(m, k), new32(k, n)
	for _, x := range [][]float32{a.Data, b.Data} {
		for i := range x {
			x[i] = mul32Value(r, special)
		}
	}
	return a, b
}

// rowsView32 returns a header aliasing rows [lo, hi) of m.
func rowsView32(m *Matrix32, lo, hi int) *Matrix32 {
	return &Matrix32{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// nanMatrix32 returns a rows×cols matrix filled with NaN, so a product
// written into it shows any element the kernel failed to overwrite.
func nanMatrix32(rows, cols int) *Matrix32 {
	m := new32(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(math.NaN())
	}
	return m
}

// checkMul32Close fails unless got = a·b within float32 rounding: each
// element may differ from the exact product, computed in float64 (exact
// for products of two float32s), by (k+1)·2⁻²³ times Σ|a_ik·b_kj| — twice
// the first-order error bound of any k-term float32 dot product, fused or
// not — plus (k+1)·2⁻¹⁴⁹ for products that underflow.
func checkMul32Close(t testing.TB, label string, a, b, got *Matrix32) {
	t.Helper()
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var want, mag float64
			for kk := 0; kk < k; kk++ {
				p := float64(a.Data[i*k+kk]) * float64(b.Data[kk*b.Cols+j])
				want += p
				mag += math.Abs(p)
			}
			tol := float64(k+1) * (0x1p-23*mag + 0x1p-149)
			if g := float64(got.Data[i*got.Cols+j]); !(math.Abs(g-want) <= tol) {
				t.Fatalf("%s m=%d k=%d n=%d: element (%d,%d) = %v, float64 product %v (tolerance %g)",
					label, a.Rows, k, b.Cols, i, j, g, want, tol)
			}
		}
	}
}

// TestMulInto32MatchesFloat64 sweeps MulInto32 on every kernel set over
// shapes that reach each block of the FMA kernel (4-row tiles alone, with
// leftover rows and as fewer than four rows; 16-column blocks and the
// masked blocks of up to 8 columns after them, alone and combined), k = 0,
// k of every residue mod 4 (the tile loop takes two kk per pass after a
// lone one when k is odd) and m = 0, into a NaN-filled dst, on whole
// matrices and on row-view operands whose neighbouring rows must stay
// untouched.
func TestMulInto32MatchesFloat64(t *testing.T) {
	forEachKernelSet(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(7))
		for _, m := range []int{0, 1, 3, 4, 5, 7, 64} {
			for _, k := range []int{0, 1, 2, 3, 5, 32, 41, 102} {
				for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 96, 130} {
					a, b := mul32Operands(r, m, k, n, 8)
					dst := nanMatrix32(m, n)
					MulInto32(dst, a, b)
					checkMul32Close(t, "whole", a, b, dst)

					// The same product through views of rows [1, 1+m) of
					// larger matrices; the elements just outside dst's view
					// must keep their values.
					abig := new32(m+2, k)
					copy(rowsView32(abig, 1, 1+m).Data, a.Data)
					dbig := nanMatrix32(m+2, n)
					dbig.Row(0)[n-1], dbig.Row(m + 1)[0] = 5, 6
					dv := rowsView32(dbig, 1, 1+m)
					MulInto32(dv, rowsView32(abig, 1, 1+m), b)
					checkMul32Close(t, "view", a, b, dv)
					if dbig.Row(0)[n-1] != 5 || dbig.Row(m + 1)[0] != 6 {
						t.Fatalf("view m=%d k=%d n=%d: rows outside the view were written", m, k, n)
					}
				}
			}
		}
	})
}

// TestMulInto32ElementBitsIndependentOfShape pins what keeps the fast path
// reproducible at any parallelism: within one kernel set, an element's
// bits depend only on its row of a and column of b. A row computed alone
// (which moves it from a 4-row tile of the FMA kernel into a tile of
// repeats of one row), and the first n columns of a product whose b has
// extra columns (which moves those columns into other column blocks),
// equal the full product bit for bit. n reaches every tail width past a
// 16- and an 8-column block and the fast path's widths 32, 94 and 96; m
// reaches whole tiles and 1 to 3 leftover rows.
func TestMulInto32ElementBitsIndependentOfShape(t *testing.T) {
	forEachKernelSet(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(11))
		const k = 37
		widths := []int{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 23, 31, 32, 33, 64, 70, 94, 96}
		for _, m := range []int{4, 5, 7, 13} {
			for _, n := range widths {
				for _, extra := range []int{1, 7, 64, 61} {
					a, bWide := mul32Operands(r, m, k, n+extra, 8)
					b := new32(k, n)
					for kk := 0; kk < k; kk++ {
						copy(b.Row(kk), bWide.Row(kk)[:n])
					}
					full := new32(m, n)
					MulInto32(full, a, b)

					wide := new32(m, n+extra)
					MulInto32(wide, a, bWide)
					one := new32(1, n)
					for i := 0; i < m; i++ {
						MulInto32(one, rowsView32(a, i, i+1), b)
						for j, want := range full.Row(i) {
							if g := one.Data[j]; math.Float32bits(g) != math.Float32bits(want) {
								t.Fatalf("n=%d: row %d alone, element %d = %v, full product %v", n, i, j, g, want)
							}
							if g := wide.Row(i)[j]; math.Float32bits(g) != math.Float32bits(want) {
								t.Fatalf("n=%d extra=%d: element (%d,%d) = %v, full product %v", n, extra, i, j, g, want)
							}
						}
					}
				}
			}
		}
	})
}

// TestMatrix32Views checks that Row and Zero on a header aliasing some
// rows of a larger matrix (the shape MulInto32's dst takes in the row-view
// tests above) stay inside those rows.
func TestMatrix32Views(t *testing.T) {
	m := new32(4, 3)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	v := rowsView32(m, 1, 3)
	if r := v.Row(1); len(r) != 3 || r[0] != 6 {
		t.Fatalf("view row 1 = %v, want [6 7 8]", r)
	}
	v.Zero()
	if m.Data[2] != 2 || m.Data[3] != 0 || m.Data[8] != 0 || m.Data[9] != 9 {
		t.Fatal("Zero through a view must stay inside the view")
	}
}

func TestMulInto32ShapePanics(t *testing.T) {
	for _, c := range []struct {
		name      string
		dst, a, b *Matrix32
	}{
		{"inner dims", new32(2, 2), new32(2, 3), new32(2, 2)},
		{"dst rows", new32(3, 2), new32(2, 3), new32(3, 2)},
		{"dst cols", new32(2, 3), new32(2, 3), new32(3, 2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("shape mismatch must panic")
				}
			}()
			MulInto32(c.dst, c.a, c.b)
		})
	}
}
