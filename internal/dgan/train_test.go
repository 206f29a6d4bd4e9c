package dgan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// raceEnabled reports a -race build (race_test.go), where sync.Pool drops
// items at random, so allocation counts are not exact.
var raceEnabled bool

// trainShapeConfig is the flow model's training shape at DefaultConfig
// scale: 94 metadata columns (five-tuple and flow-tag groups), 16 feature
// columns plus the presence flag, 6 steps, hidden width 32.
func trainShapeConfig(batch int) Config {
	cfg := DefaultConfig()
	cfg.MetaSchema = []nn.FieldSpec{
		{Name: "src", Kind: nn.FieldCategorical, Size: 32},
		{Name: "dst", Kind: nn.FieldCategorical, Size: 32},
		{Name: "port", Kind: nn.FieldCategorical, Size: 16},
		{Name: "proto", Kind: nn.FieldCategorical, Size: 8},
		{Name: "stats", Kind: nn.FieldContinuous, Size: 6},
	}
	cfg.FeatureSchema = []nn.FieldSpec{
		{Name: "kind", Kind: nn.FieldCategorical, Size: 12},
		{Name: "vals", Kind: nn.FieldContinuous, Size: 4},
	}
	cfg.MaxLen, cfg.Hidden, cfg.Batch = 6, 32, batch
	cfg.Parallelism = 1
	return cfg
}

// trainShapeSamples draws n samples of trainShapeConfig's shape: a one-hot
// per categorical group, uniform continuous values, 1 to MaxLen steps, and
// a uniform label on conditional configs.
func trainShapeSamples(cfg Config, n int, seed int64) []Sample {
	r := rng.New(seed)
	row := func(schema []nn.FieldSpec) []float64 {
		out := make([]float64, 0, nn.Width(schema))
		for _, f := range schema {
			v := make([]float64, f.Size)
			if f.Kind == nn.FieldCategorical {
				v[r.Intn(f.Size)] = 1
			} else {
				for j := range v {
					v[j] = r.Float64()
				}
			}
			out = append(out, v...)
		}
		return out
	}
	out := make([]Sample, n)
	for i := range out {
		s := Sample{Meta: row(cfg.MetaSchema)}
		for t := 1 + r.Intn(cfg.MaxLen); t > 0; t-- {
			s.Features = append(s.Features, row(cfg.FeatureSchema))
		}
		if cfg.Labels > 0 {
			s.Label = r.Intn(cfg.Labels)
		}
		out[i] = s
	}
	return out
}

// newTrainShapeModel builds a trainShapeConfig model and its samples.
func newTrainShapeModel(tb testing.TB, batch int) (*Model, []Sample) {
	tb.Helper()
	cfg := trainShapeConfig(batch)
	m, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	samples := trainShapeSamples(cfg, 256, 5)
	if err := m.checkSamples(samples); err != nil {
		tb.Fatal(err)
	}
	return m, samples
}

// maxTrainStepAllocs bounds a warm critic+generator round: what remains
// are the generator's parameter list, which the gradient norm builds, and
// the lists it is built from, never a matrix. The optimizers build none:
// each captured its module's list on its first step.
const maxTrainStepAllocs = 6

// TestTrainStepAllocs: once warm, a critic step plus a generator step
// allocates the same small number of times at batch 16 and at batch 64,
// so no training buffer is rebuilt per step or grows with the batch.
func TestTrainStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	var counts []float64
	for _, batch := range []int{16, 64} {
		m, samples := newTrainShapeModel(t, batch)
		step := func() {
			m.criticStep(samples, nil)
			m.generatorStep()
		}
		step()
		counts = append(counts, testing.AllocsPerRun(20, step))
	}
	if counts[0] != counts[1] {
		t.Fatalf("warm train step allocates %v times at batch 16 and %v at batch 64, want equal", counts[0], counts[1])
	}
	if counts[0] > maxTrainStepAllocs {
		t.Fatalf("warm train step allocates %v times, want at most %d", counts[0], maxTrainStepAllocs)
	}
	t.Logf("warm train step: %v allocations", counts[0])
}

// BenchmarkTrainStep times one critic+generator round — the inner unit of
// Train with CriticIters 1 — at the flow model's training shape and batch
// 16.
func BenchmarkTrainStep(b *testing.B) {
	m, samples := newTrainShapeModel(b, 16)
	m.criticStep(samples, nil)
	m.generatorStep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.criticStep(samples, nil)
		m.generatorStep()
	}
}

// TestTrainedWeightsGolden pins the bits of every trained weight and of the
// last step's losses and generator gradient norm, for plain, conditional
// and DP-SGD training at the flow model's training shape. core's CSV
// goldens cannot stand in for it: Adam's normalized steps and the record
// decoders can absorb a one-ulp change in a gradient (reordering the GRU's
// input-gradient sum leaves every CSV digest as it is), and this digest
// cannot. The values were recorded from the unfused-GRU training code. Each
// kernel set must reproduce them.
func TestTrainedWeightsGolden(t *testing.T) {
	mat.ForEachKernelSet(func(name string) {
		t.Run(name, testTrainedWeightsGolden)
	})
}

func testTrainedWeightsGolden(t *testing.T) {
	cases := []struct {
		name   string
		labels int
		dp     bool
		want   string
	}{
		{"plain", 0, false, "a7c4363dbf6d72d7e016705a6e244c61ef07e80c855f031f0cb889c0cdc4ab9f"},
		{"conditional", 3, false, "9eb889861b542b1b1daf64bcd776a5bed8ba2e4bbf53e499d7131b152aa99f8c"},
		{"dp-sgd", 0, true, "e6f547df351234b92aabcc894d907e5ebbbf7f13236dc183ba3c5a8b9bb40509"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := trainShapeConfig(16)
			cfg.Labels = tc.labels
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			samples := trainShapeSamples(cfg, 128, 9)
			var st Stats
			if tc.dp {
				dp, err := privacy.NewDPSGD(privacy.DPSGDConfig{
					ClipNorm: 1, NoiseMultiplier: 0.7, SampleRate: 16.0 / 128, Delta: 1e-5,
				}, rand.New(rand.NewSource(7)))
				if err != nil {
					t.Fatal(err)
				}
				st, err = m.TrainDPWithHook(samples, 25, dp, nil)
				if err != nil {
					t.Fatal(err)
				}
			} else if st, err = m.Train(samples, 25); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			put := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
			for _, p := range m.Params() {
				for _, v := range p.W.Data {
					put(v)
				}
			}
			put(st.CriticLoss)
			put(st.GenLoss)
			put(st.GradNorm)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("weights digest %s, want %s", got, tc.want)
			}
		})
	}
}
