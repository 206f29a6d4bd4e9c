package nn

import (
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
	var sc MLPScratch
	got := m.InferInto(x, &sc)
	if !reflect.DeepEqual(want.Data, got.Data) {
		t.Fatal("InferInto diverges from Forward")
	}

	// Scratch reuse with a smaller batch must not read stale rows.
	x2 := x.RowsView(0, 2)
	want2 := m.Forward(x2)
	got2 := m.InferInto(x2, &sc)
	if !reflect.DeepEqual(want2.Data, got2.Data) {
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
	var sc FusedGRUScratch
	got := mat.New(3, 6)
	f.StepInfer(x, h, got, &sc)
	if !reflect.DeepEqual(want.Data, got.Data) {
		t.Fatal("StepInfer diverges from Step")
	}

	// A second step on the first two rows only, chained through the
	// inference path, must also agree.
	x2 := x.RowsView(0, 2)
	want2 := g.Step(x2, want.RowsView(0, 2))
	got2 := mat.New(2, 6)
	f.StepInfer(x2, got.RowsView(0, 2), got2, &sc)
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
	got := mat.New(7, 4)
	d.InferStepInto(x, got)
	if !reflect.DeepEqual(want.Data, got.Data) {
		t.Fatal("InferStepInto diverges from Forward")
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
	ActivateRows(schema, got)
	if !reflect.DeepEqual(want.Data, got.Data) {
		t.Fatal("ActivateRows diverges from OutputHead.Forward")
	}
}

func TestApplyActKindMatchesActivation(t *testing.T) {
	r := rng.New(5)
	for _, kind := range []ActKind{ReLU, LeakyReLU, Tanh, Sigmoid, Identity} {
		x := mat.New(4, 6)
		x.RandNorm(r, 1.5)
		want := NewActivation(kind).Forward(x)
		got := x.Clone()
		applyActKind(kind, got)
		if !reflect.DeepEqual(want.Data, got.Data) {
			t.Fatalf("%v: applyActKind diverges from Activation.Forward", kind)
		}
	}
}
