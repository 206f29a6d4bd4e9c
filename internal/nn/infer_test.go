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
	x2 := mat.NewFrom(2, x.Cols, x.Data[:2*x.Cols])
	want2 := m.Forward(x2)
	got2 := m.Infer().InferInto(x2.Data, x2.Rows, &sc)
	if !reflect.DeepEqual(want2.Data, got2) {
		t.Fatal("InferInto diverges after scratch reuse")
	}
}

// sigmoid is the logistic function of one value: mat's float64 sigmoid
// leaf on a one-element row.
func sigmoid(v float64) float64 {
	row := []float64{v}
	mat.Sigmoid(row)
	return row[0]
}

// unfusedStep is the GRU step as six per-gate products, the form the fused
// step replaced: z = σ(x·Wz + h·Uz + bz), r likewise, ĥ = tanh(x·Wh +
// (r⊙h)·Uh + bh), h' = (1−z)⊙h + z⊙ĥ, each gate summed (x·W + h·U) + b.
func unfusedStep(g *GRU, x, h *mat.Matrix) *mat.Matrix {
	gate := func(w, u, b *Param, act func(float64) float64, hIn *mat.Matrix) *mat.Matrix {
		a := mat.New(x.Rows, w.W.Cols)
		mat.MulInto(a, x, w.W)
		hu := mat.New(x.Rows, u.W.Cols)
		mat.MulInto(hu, hIn, u.W)
		a.Add(hu)
		a.AddRowVec(b.W.Data)
		for i, v := range a.Data {
			a.Data[i] = act(v)
		}
		return a
	}
	z := gate(g.Wz, g.Uz, g.Bz, sigmoid, h)
	r := gate(g.Wr, g.Ur, g.Br, sigmoid, h)
	rh := h.Clone()
	for i, v := range r.Data {
		rh.Data[i] *= v
	}
	hhat := gate(g.Wh, g.Uh, g.Bh, math.Tanh, rh)
	next := mat.New(x.Rows, g.Hidden)
	for i := range next.Data {
		next.Data[i] = (1-z.Data[i])*h.Data[i] + z.Data[i]*hhat.Data[i]
	}
	return next
}

// TestGRUStepInferMatchesStep pins the packed inference step to the
// unfused per-gate step bit for bit, including a chained second step on
// fewer rows through the same scratch (the shape the lot sampler's live-row
// compaction produces), and the training Forward to chained StepInfer
// calls.
func TestGRUStepInferMatchesStep(t *testing.T) {
	r := rng.New(2)
	g := NewGRU("t", 4, 6)
	InitXavier(g, r)
	x := mat.New(3, 4)
	x.RandNorm(r, 1)
	h := mat.New(3, 6)
	h.RandNorm(r, 1)

	f := FuseGRU(g)
	want := unfusedStep(g, x, h)
	var sc FusedGRUScratch[float64]
	got := mat.New(3, 6)
	f.StepInfer(x.Data, h.Data, got.Data, 3, &sc)
	if !reflect.DeepEqual(want.Data, got.Data) {
		t.Fatal("StepInfer diverges from the unfused step")
	}

	// A second step on the first two rows only, chained through the
	// inference path, must also agree.
	x2 := mat.NewFrom(2, 4, x.Data[:2*4])
	want2 := unfusedStep(g, x2, mat.NewFrom(2, 6, want.Data[:2*6]))
	got2 := mat.New(2, 6)
	f.StepInfer(x2.Data, got.Data[:2*6], got2.Data, 2, &sc)
	if !reflect.DeepEqual(want2.Data, got2.Data) {
		t.Fatal("chained StepInfer on fewer rows diverges")
	}

	// The training Forward runs the same step: a four-step sequence from
	// h and from the zero state equals StepInfer chained by hand.
	xs := make([]*mat.Matrix, 4)
	for i := range xs {
		xs[i] = mat.New(3, 4)
		xs[i].RandNorm(r, 1)
	}
	for _, h0 := range []*mat.Matrix{h, nil} {
		hs := g.Forward(xs, h0)
		prev := mat.New(3, 6)
		if h0 != nil {
			prev = h0.Clone()
		}
		for i, xi := range xs {
			next := mat.New(3, 6)
			f.StepInfer(xi.Data, prev.Data, next.Data, 3, &sc)
			if !reflect.DeepEqual(hs[i].Data, next.Data) {
				t.Fatalf("Forward step %d diverges from chained StepInfer (h0 nil: %v)", i, h0 == nil)
			}
			prev = next
		}
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
// an MLP layer's activation forward bit for bit and bounds the float32
// one's error.
func TestApplyActKindMatchesActivation(t *testing.T) {
	r := rng.New(5)
	for _, kind := range []ActKind{ReLU, LeakyReLU, Tanh, Sigmoid, Identity} {
		x := mat.New(4, 6)
		x.RandNorm(r, 1.5)
		want := (&activation{kind: kind}).forward(x.Clone())
		got := x.Clone()
		applyActKind(kind, got.Data)
		if !reflect.DeepEqual(want.Data, got.Data) {
			t.Fatalf("%v: applyActKind diverges from the activation forward", kind)
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
