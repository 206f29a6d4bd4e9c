package dgan

import (
	"math/rand"

	"repro/internal/mat"
	"repro/internal/nn"
)

// Generate produces n synthetic samples. Categorical fields are sampled
// from the generator's softmax distributions; sequences are cut at the
// first step whose presence flag falls below 0.5 (minimum length 1). Work
// is fanned out across Config.Parallelism workers in lots of Config.Batch
// on derived RNG streams; the result is byte-identical at every setting.
// On conditional models each sample's scenario label is drawn from the
// fitted training distribution (a mixture over the label catalog).
func (m *Model) Generate(n int) []Sample {
	out, _ := m.generate(m.rng, n, -1)
	return out
}

// GenerateLabeled produces n synthetic samples all conditioned on the
// given scenario label. It fails on unconditional models and out-of-range
// labels.
func (m *Model) GenerateLabeled(n, label int) ([]Sample, error) {
	if label < 0 {
		return nil, m.checkLabel(label)
	}
	return m.generate(m.rng, n, label)
}

// GenerateFrom is Generate (label < 0) or GenerateLabeled drawing the
// single lot-stream base from r instead of the model's RNG. It leaves the
// model untouched, so concurrent calls with distinct r are safe: weights
// are read-only during generation and scratch comes from a sync.Pool.
func (m *Model) GenerateFrom(r *rand.Rand, n, label int) ([]Sample, error) {
	return m.generate(r, n, label)
}

// generate packs the GRU's gates once for the call, shared read-only by
// every worker, and runs the lot driver on the float64 forward.
func (m *Model) generate(r *rand.Rand, n, label int) ([]Sample, error) {
	fw := &exactForward{m: m, gru: nn.FuseGRU(m.seqGRU)}
	return sampleLots[float64, exactScratch](&m.shape, fw, &m.genPool, &exactTel,
		r, m.Config.Batch, m.Config.workers(), n, label)
}

// exactForward is the float64 generator forward, bitwise equal to the
// training forward pass (nn's inference forwards are pinned to it).
type exactForward struct {
	m   *Model
	gru *nn.FusedGRU
}

// exactScratch is one worker's float64 forward scratch, including the
// matrix headers the lot scratch's spans are viewed through.
type exactScratch struct {
	mlp                  nn.MLPScratch
	gru                  nn.FusedGRUScratch
	in, x, h, hNext, out mat.Matrix
}

func (f *exactForward) meta(sc *exactScratch, in []float64, rows int) []float64 {
	meta := f.m.metaGen.InferInto(view(&sc.in, in, rows), &sc.mlp)
	nn.ActivateRows(f.m.metaSchema, meta)
	return meta.Data
}

func (f *exactForward) step(sc *exactScratch, x, h, hNext []float64, rows int) {
	f.gru.StepInfer(view(&sc.x, x, rows), view(&sc.h, h, rows), view(&sc.hNext, hNext, rows), &sc.gru)
}

func (f *exactForward) project(sc *exactScratch, h, out []float64, rows int) {
	o := view(&sc.out, out, rows)
	f.m.seqProj.InferStepInto(view(&sc.h, h, rows), o)
	nn.ActivateRows(f.m.featSchema, o)
}

// view points the header m at data as a rows-row matrix.
func view(m *mat.Matrix, data []float64, rows int) *mat.Matrix {
	*m = mat.Matrix{Rows: rows, Cols: len(data) / rows, Data: data}
	return m
}
