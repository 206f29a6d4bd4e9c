package dgan

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/privacy"
	"repro/internal/rng"
)

func toyConfig() Config {
	cfg := DefaultConfig()
	cfg.MetaSchema = []nn.FieldSpec{
		{Name: "class", Kind: nn.FieldCategorical, Size: 2},
		{Name: "level", Kind: nn.FieldContinuous, Size: 1},
	}
	cfg.FeatureSchema = []nn.FieldSpec{
		{Name: "value", Kind: nn.FieldContinuous, Size: 1},
	}
	cfg.MaxLen = 4
	cfg.Hidden = 16
	cfg.Batch = 16
	return cfg
}

// toySamples draws from a known joint: class 0 with p=0.85 (level 0.2,
// 2-step sequences of value 0.8), class 1 with p=0.15 (level 0.9, 1-step
// sequences of value 0.1).
func toySamples(n int, seed int64) []Sample {
	r := rng.New(seed)
	out := make([]Sample, n)
	for i := range out {
		if r.Float64() < 0.85 {
			out[i] = Sample{
				Meta:     []float64{1, 0, 0.2},
				Features: [][]float64{{0.8}, {0.8}},
			}
		} else {
			out[i] = Sample{
				Meta:     []float64{0, 1, 0.9},
				Features: [][]float64{{0.1}},
			}
		}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := toyConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := toyConfig()
	bad.MaxLen = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("MaxLen=0 must fail")
	}
	bad = toyConfig()
	bad.MetaSchema = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty schema must fail")
	}
	bad = toyConfig()
	bad.LR = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero LR must fail")
	}
}

func TestCheckSamplesErrors(t *testing.T) {
	m, err := New(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(nil, 1); err == nil {
		t.Fatal("empty samples must fail")
	}
	if _, err := m.Train([]Sample{{Meta: []float64{1}, Features: [][]float64{{0.5}}}}, 1); err == nil {
		t.Fatal("wrong metadata width must fail")
	}
	if _, err := m.Train([]Sample{{Meta: []float64{1, 0, 0.5}, Features: nil}}, 1); err == nil {
		t.Fatal("empty sequence must fail")
	}
	long := Sample{Meta: []float64{1, 0, 0.5}}
	for i := 0; i < 5; i++ { // MaxLen is 4
		long.Features = append(long.Features, []float64{0.5})
	}
	if _, err := m.Train([]Sample{long}, 1); err == nil {
		t.Fatal("overlong sequence must fail")
	}
	if _, err := m.Train([]Sample{{Meta: []float64{1, 0, 0.5}, Features: [][]float64{{0.5, 0.5}}}}, 1); err == nil {
		t.Fatal("wrong feature width must fail")
	}
}

func TestGenerateShapes(t *testing.T) {
	m, err := New(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen := m.Generate(23)
	if len(gen) != 23 {
		t.Fatalf("generated %d samples", len(gen))
	}
	for i, s := range gen {
		if len(s.Meta) != 3 {
			t.Fatalf("sample %d metadata width %d", i, len(s.Meta))
		}
		// Categorical must be exactly one-hot.
		if s.Meta[0]+s.Meta[1] != 1 || (s.Meta[0] != 0 && s.Meta[0] != 1) {
			t.Fatalf("sample %d categorical not one-hot: %v", i, s.Meta[:2])
		}
		if s.Meta[2] < 0 || s.Meta[2] > 1 {
			t.Fatalf("sample %d continuous out of [0,1]: %v", i, s.Meta[2])
		}
		if len(s.Features) < 1 || len(s.Features) > 4 {
			t.Fatalf("sample %d length %d", i, len(s.Features))
		}
		for _, f := range s.Features {
			if len(f) != 1 {
				t.Fatalf("sample %d feature width %d", i, len(f))
			}
			if f[0] < 0 || f[0] > 1 {
				t.Fatalf("sample %d feature out of range: %v", i, f[0])
			}
		}
	}
}

func TestTrainingImprovesFit(t *testing.T) {
	cfg := toyConfig()
	cfg.Seed = 11
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := toySamples(256, 1)

	distance := func(gen []Sample) float64 {
		// Compare generated marginals against the toy ground truth:
		// P(class0)=0.85, E[level|class0]=0.2, E[value]≈0.8·(2/3)+0.1·(1/3).
		var class0, level, value, steps float64
		var nv float64
		for _, s := range gen {
			if s.Meta[0] == 1 {
				class0++
			}
			level += s.Meta[2]
			steps += float64(len(s.Features))
			for _, f := range s.Features {
				value += f[0]
				nv++
			}
		}
		n := float64(len(gen))
		class0 /= n
		level /= n
		steps /= n
		value /= nv
		wantLevel := 0.85*0.2 + 0.15*0.9
		wantSteps := 0.85*2 + 0.15*1
		wantValue := (0.85*2*0.8 + 0.15*0.1) / (0.85*2 + 0.15)
		return math.Abs(class0-0.85) + math.Abs(level-wantLevel) +
			math.Abs(steps-wantSteps)/4 + math.Abs(value-wantValue)
	}

	before := distance(m.Generate(300))
	if _, err := m.Train(samples, 700); err != nil {
		t.Fatal(err)
	}
	after := distance(m.Generate(300))
	if after >= before {
		t.Fatalf("training did not improve fit: %v -> %v", before, after)
	}
	if after > 0.45 {
		t.Fatalf("fit too loose after training: %v", after)
	}
}

func TestWarmstartCopiesWeights(t *testing.T) {
	cfg := toyConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(toySamples(64, 2), 20); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = 999
	b, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Warmstart(a); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatal("warmstart must copy all weights")
			}
		}
	}
}

func TestWarmstartRejectsMismatch(t *testing.T) {
	a, _ := New(toyConfig())
	cfg := toyConfig()
	cfg.Hidden = 24
	b, _ := New(cfg)
	if err := b.Warmstart(a); err == nil {
		t.Fatal("architecture mismatch must be rejected")
	}
}

func TestTrainDP(t *testing.T) {
	cfg := toyConfig()
	cfg.Batch = 8
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := privacy.NewDPSGD(privacy.DPSGDConfig{
		ClipNorm: 1, NoiseMultiplier: 0.5, SampleRate: 8.0 / 64, Delta: 1e-5,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.TrainDPWithHook(toySamples(64, 3), 10, dp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 10 {
		t.Fatalf("steps = %d", st.Steps)
	}
	if dp.Steps() == 0 {
		t.Fatal("DP accountant must have recorded steps")
	}
	if eps := dp.Epsilon(); eps <= 0 || math.IsInf(eps, 1) {
		t.Fatalf("epsilon = %v", eps)
	}
	// Model must still generate valid output after noisy training.
	gen := m.Generate(10)
	if len(gen) != 10 {
		t.Fatal("generation failed after DP training")
	}
	if _, err := m.TrainDPWithHook(toySamples(8, 1), 1, nil, nil); err == nil {
		t.Fatal("nil DPSGD must be rejected")
	}
}

func TestTrainDeterministicWithSeed(t *testing.T) {
	run := func() []Sample {
		m, err := New(toyConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Train(toySamples(64, 5), 15); err != nil {
			t.Fatal(err)
		}
		return m.Generate(5)
	}
	a, b := run(), run()
	for i := range a {
		if len(a[i].Features) != len(b[i].Features) {
			t.Fatal("same seed must reproduce generation lengths")
		}
		for j := range a[i].Meta {
			if a[i].Meta[j] != b[i].Meta[j] {
				t.Fatal("same seed must reproduce metadata")
			}
		}
	}
}

func TestGeneratorModuleCoversAllParams(t *testing.T) {
	m, _ := New(toyConfig())
	gen := len(generatorModule{m}.Params())
	all := len(m.Params())
	critic := len(m.critic.Params()) + len(m.auxCritic.Params())
	if gen+critic != all {
		t.Fatalf("params partition broken: %d + %d != %d", gen, critic, all)
	}
}
