package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestFusedGRU32MatchesReference drives the packed float32 GRU and the
// float64 reference with identical inputs over several steps and bounds
// the hidden-state drift.
func TestFusedGRU32MatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const in, hid, batch, steps = 7, 13, 5, 6
	g := NewGRU("t.gru", in, hid)
	InitXavier(g, r)
	ref := FuseGRU(g)
	fused := ref.Narrow()

	x := mat.New(batch, in)
	h := mat.New(batch, hid)
	hNext := mat.New(batch, hid)
	var sc FusedGRUScratch[float64]

	x32 := make([]float32, batch*in)
	h32 := make([]float32, batch*hid)
	hNext32 := make([]float32, batch*hid)
	var sc32 FusedGRUScratch[float32]

	for s := 0; s < steps; s++ {
		x.RandNorm(r, 1)
		for i, v := range x.Data {
			x32[i] = float32(v)
		}
		ref.StepInfer(x.Data, h.Data, hNext.Data, batch, &sc)
		fused.StepInfer(x32, h32, hNext32, batch, &sc32)
		h, hNext = hNext, h
		h32, hNext32 = hNext32, h32
		for i, v := range h32 {
			if math.Abs(float64(v)-h.Data[i]) > 1e-3 {
				t.Fatalf("step %d hidden[%d]: fused %v vs reference %v", s, i, v, h.Data[i])
			}
		}
	}
}

// TestMLP32MatchesReference bounds the drift of the narrowed layer
// modules: an MLP and the output projection (one Identity layer).
func TestMLP32MatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	m := NewMLP("t.mlp", []int{6, 16, 16, 5}, ReLU, Identity, r)
	x := mat.New(4, 6)
	x.RandNorm(r, 1)
	proj := NewTimeDense("t.proj", 6, 5)
	InitXavier(proj, r)

	for _, c := range []struct {
		name string
		ref  *Layers[float64]
	}{{"mlp", m.Infer()}, {"projection", proj.Infer()}} {
		var sc LayersScratch[float64]
		want := c.ref.InferInto(x.Data, x.Rows, &sc)
		var sc32 LayersScratch[float32]
		got := c.ref.Narrow().InferInto(narrowVec(x.Data), x.Rows, &sc32)
		for i, v := range got {
			if math.Abs(float64(v)-want[i]) > 1e-3 {
				t.Fatalf("%s output %d: %v vs %v", c.name, i, v, want[i])
			}
		}
	}
}

func TestActivateRows32MatchesReference(t *testing.T) {
	schema := []FieldSpec{
		{Name: "c", Kind: FieldContinuous, Size: 2},
		{Name: "k", Kind: FieldCategorical, Size: 4},
	}
	r := rand.New(rand.NewSource(13))
	x := mat.New(3, Width(schema))
	x.RandNorm(r, 2)
	x32 := narrowVec(x.Data)
	ActivateRows(schema, x.Data, x.Rows)
	ActivateRows(schema, x32, x.Rows)
	for i, v := range x32 {
		if math.Abs(float64(v)-x.Data[i]) > 1e-3 {
			t.Fatalf("element %d: %v vs %v", i, v, x.Data[i])
		}
	}
	// Softmax groups must remain proper distributions.
	for i := 0; i < 3; i++ {
		var sum float32
		for _, p := range x32[i*6+2 : i*6+6] {
			if p < 0 {
				t.Fatal("negative probability")
			}
			sum += p
		}
		if math.Abs(float64(sum)-1) > 1e-5 {
			t.Fatalf("row %d softmax sums to %v", i, sum)
		}
	}
}

// TestSampleRowFloat32MatchesFloat64 checks SampleRow picks the same
// category from float32 and float64 rows for the same uniform draw on the
// same distribution.
func TestSampleRowFloat32MatchesFloat64(t *testing.T) {
	schema := []FieldSpec{
		{Name: "c", Kind: FieldContinuous, Size: 1},
		{Name: "k", Kind: FieldCategorical, Size: 3},
	}
	row := []float64{0.25, 0.2, 0.5, 0.3}
	row32 := []float32{0.25, 0.2, 0.5, 0.3}
	a, b := make([]float64, len(row)), make([]float64, len(row))
	for _, u := range []float64{0.05, 0.3, 0.69, 0.71, 0.99} {
		SampleRow(a, schema, row, func() float64 { return u })
		SampleRow(b, schema, row32, func() float64 { return u })
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-6 {
				t.Fatalf("u=%v: float64 row %v vs float32 row %v", u, a, b)
			}
		}
	}
}
