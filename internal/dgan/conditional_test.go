package dgan

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

func condConfig() Config {
	cfg := toyConfig()
	cfg.Labels = 3
	return cfg
}

// condSamples draws a label-skewed training set: label 0 with p=0.6,
// label 1 with p=0.3, label 2 with p=0.1, each tied to a distinct
// metadata/sequence pattern.
func condSamples(n int, seed int64) []Sample {
	r := rng.New(seed)
	out := make([]Sample, n)
	for i := range out {
		u := r.Float64()
		switch {
		case u < 0.6:
			out[i] = Sample{Label: 0, Meta: []float64{1, 0, 0.2}, Features: [][]float64{{0.8}, {0.8}}}
		case u < 0.9:
			out[i] = Sample{Label: 1, Meta: []float64{0, 1, 0.9}, Features: [][]float64{{0.1}}}
		default:
			out[i] = Sample{Label: 2, Meta: []float64{1, 0, 0.5}, Features: [][]float64{{0.5}, {0.5}, {0.5}}}
		}
	}
	return out
}

func TestConditionalConfigValidate(t *testing.T) {
	if err := condConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := condConfig()
	bad.Labels = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("Labels=1 must fail (a 1-way one-hot conditions nothing)")
	}
	bad.Labels = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative Labels must fail")
	}
}

func TestConditionalTrainAndGenerate(t *testing.T) {
	m, err := New(condConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples := condSamples(128, 7)
	if _, err := m.Train(samples, 4); err != nil {
		t.Fatal(err)
	}
	w := m.LabelWeights()
	if len(w) != 3 {
		t.Fatalf("label weights %v, want 3 entries", w)
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("label weights sum %v, want 1", sum)
	}

	// Mixture generation draws labels from the fitted distribution.
	gen := m.Generate(200)
	seen := make(map[int]int)
	for _, s := range gen {
		if s.Label < 0 || s.Label >= 3 {
			t.Fatalf("generated label %d out of range", s.Label)
		}
		seen[s.Label]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("mixture generation never drew the common labels: %v", seen)
	}

	// Pinned generation stamps every sample.
	for label := 0; label < 3; label++ {
		pinned, err := m.GenerateLabeled(50, label)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range pinned {
			if s.Label != label {
				t.Fatalf("pinned label %d but sample carries %d", label, s.Label)
			}
		}
	}
	if _, err := m.GenerateLabeled(5, 3); err == nil {
		t.Fatal("out-of-range label must fail")
	}
	if _, err := m.GenerateLabeled(5, -1); err == nil {
		t.Fatal("negative label must fail")
	}
}

func TestConditionalLabelRangeChecked(t *testing.T) {
	m, err := New(condConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := condSamples(4, 1)
	bad[2].Label = 7
	if _, err := m.Train(bad, 1); err == nil {
		t.Fatal("out-of-range sample label must fail")
	}
}

func TestUnconditionalGenerateLabeledFails(t *testing.T) {
	m, err := New(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.GenerateLabeled(5, 0); err == nil {
		t.Fatal("GenerateLabeled on an unconditional model must fail")
	}
	im := m.Infer()
	if _, err := im.GenerateLabeled(5, 0); err == nil {
		t.Fatal("GenerateLabeled on an unconditional snapshot must fail")
	}
}

// TestConditionalEncodeDecodeRoundTrip verifies the gob round trip keeps
// the label weights and that a decoded model generates bitwise-identical
// labeled output.
func TestConditionalEncodeDecodeRoundTrip(t *testing.T) {
	m, err := New(condConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(condSamples(64, 3), 3); err != nil {
		t.Fatal(err)
	}
	blob, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.LabelWeights(), m2.LabelWeights()) {
		t.Fatalf("label weights lost: %v vs %v", m.LabelWeights(), m2.LabelWeights())
	}
	m.Reseed(99)
	m2.Reseed(99)
	a, err := m.GenerateLabeled(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m2.GenerateLabeled(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("decoded model's labeled generation diverged")
	}
}

// TestConditionalInferSnapshot: the float32 snapshot of a conditional
// model keeps its label block, and GenerateLabeled pins every sample.
func TestConditionalInferSnapshot(t *testing.T) {
	m, err := New(condConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(condSamples(64, 5), 2); err != nil {
		t.Fatal(err)
	}
	im := m.Infer()
	if im.condW != 3 || !reflect.DeepEqual(im.LabelWeights(), m.LabelWeights()) {
		t.Fatalf("label block lost: labels=%d weights=%v, want 3 and %v", im.condW, im.LabelWeights(), m.LabelWeights())
	}
	im.Reseed(42)
	samples, err := im.GenerateLabeled(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Label != 2 {
			t.Fatalf("snapshot pinned label 2 but sample carries %d", s.Label)
		}
	}
}
