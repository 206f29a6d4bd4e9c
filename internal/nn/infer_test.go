package nn

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// The inference forwards must be bitwise identical to the caching training
// forwards: the generation pipeline's determinism guarantee rests on it.

func TestMLPInferMatchesForward(t *testing.T) {
	r := rng.New(1)
	m := NewMLP("t", []int{5, 9, 7, 3}, ReLU, Identity, r)
	x := mat.New(6, 5)
	x.RandNorm(r, 1)

	want := m.Forward(x)
	var sc LayersScratch[float64]
	got := m.Infer().InferInto(x.Data, x.Rows, &sc)
	if !reflect.DeepEqual(want.Data, got) {
		t.Fatal("InferInto diverges from Forward")
	}

	// Scratch reuse with a smaller batch must not read stale rows.
	x2 := x.RowsView(0, 2)
	want2 := m.Forward(x2)
	got2 := m.Infer().InferInto(x2.Data, x2.Rows, &sc)
	if !reflect.DeepEqual(want2.Data, got2) {
		t.Fatal("InferInto diverges after scratch reuse")
	}
}

// TestGRUStepInferMatchesStep pins the packed inference step to the
// training step bit for bit, including a chained second step on fewer rows
// through the same scratch: the shape the lot sampler's live-row
// compaction produces.
func TestGRUStepInferMatchesStep(t *testing.T) {
	r := rng.New(2)
	g := NewGRU("t", 4, 6)
	InitXavier(g, r)
	x := mat.New(3, 4)
	x.RandNorm(r, 1)
	h := mat.New(3, 6)
	h.RandNorm(r, 1)

	f := FuseGRU(g)
	want := g.Step(x, h.Clone())
	var sc FusedGRUScratch[float64]
	got := mat.New(3, 6)
	f.StepInfer(x.Data, h.Data, got.Data, 3, &sc)
	if !reflect.DeepEqual(want.Data, got.Data) {
		t.Fatal("StepInfer diverges from Step")
	}

	// A second step on the first two rows only, chained through the
	// inference path, must also agree.
	x2 := x.RowsView(0, 2)
	want2 := g.Step(x2, want.RowsView(0, 2))
	got2 := mat.New(2, 6)
	f.StepInfer(x2.Data, got.RowsView(0, 2).Data, got2.Data, 2, &sc)
	if !reflect.DeepEqual(want2.Data, got2.Data) {
		t.Fatal("chained StepInfer on fewer rows diverges")
	}
}

func TestTimeDenseInferStepMatchesForward(t *testing.T) {
	r := rng.New(3)
	d := NewTimeDense("t", 5, 4)
	InitXavier(d, r)
	x := mat.New(7, 5)
	x.RandNorm(r, 1)

	want := d.Forward([]*mat.Matrix{x})[0]
	var sc LayersScratch[float64]
	got := d.Infer().InferInto(x.Data, x.Rows, &sc)
	if !reflect.DeepEqual(want.Data, got) {
		t.Fatal("projection InferInto diverges from Forward")
	}
}

func TestActivateRowsMatchesHeadForward(t *testing.T) {
	schema := []FieldSpec{
		{Name: "a", Kind: FieldContinuous, Size: 2},
		{Name: "b", Kind: FieldCategorical, Size: 3},
		{Name: "c", Kind: FieldContinuous, Size: 1},
	}
	r := rng.New(4)
	x := mat.New(5, Width(schema))
	x.RandNorm(r, 2)

	head := NewOutputHead(schema)
	want := head.Forward(x)
	got := x.Clone()
	ActivateRows(schema, got.Data, got.Rows)
	if !reflect.DeepEqual(want.Data, got.Data) {
		t.Fatal("ActivateRows diverges from OutputHead.Forward")
	}
}

// TestApplyActKindMatchesActivation pins the float64 activation switch to
// Activation.Forward bit for bit and bounds the float32 one's error.
func TestApplyActKindMatchesActivation(t *testing.T) {
	r := rng.New(5)
	for _, kind := range []ActKind{ReLU, LeakyReLU, Tanh, Sigmoid, Identity} {
		x := mat.New(4, 6)
		x.RandNorm(r, 1.5)
		want := NewActivation(kind).Forward(x)
		got := x.Clone()
		applyActKind(kind, got.Data)
		if !reflect.DeepEqual(want.Data, got.Data) {
			t.Fatalf("%v: applyActKind diverges from Activation.Forward", kind)
		}

		// The float32 instance agrees within its leaves' approximation.
		got32 := narrowVec(x.Data)
		applyActKind(kind, got32)
		for i, v := range got32 {
			if math.Abs(float64(v)-want.Data[i]) > 1e-3 {
				t.Fatalf("%v: float32 element %d = %v, float64 %v", kind, i, v, want.Data[i])
			}
		}
	}
}
