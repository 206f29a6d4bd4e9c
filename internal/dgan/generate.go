package dgan

import (
	"math/rand"

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
	out, _ := m.generate(m.rng, nil, n, -1)
	return out
}

// GenerateLabeled produces n synthetic samples all conditioned on the
// given scenario label. It fails on unconditional models and out-of-range
// labels.
func (m *Model) GenerateLabeled(n, label int) ([]Sample, error) {
	if label < 0 {
		return nil, m.checkLabel(label)
	}
	return m.generate(m.rng, nil, n, label)
}

// GenerateFrom is Generate (label < 0) or GenerateLabeled drawing the
// single lot-stream base from r instead of the model's RNG, into st (see
// Storage). It leaves the model untouched, so concurrent calls with
// distinct r and st are safe: weights are read-only during generation and
// scratch comes from a sync.Pool.
func (m *Model) GenerateFrom(r *rand.Rand, st *Storage, n, label int) ([]Sample, error) {
	return m.generate(r, st, n, label)
}

// generate builds the float64 forward once for the call, shared
// read-only by every worker, and runs the lot driver on it into st (a
// fresh Storage when nil).
func (m *Model) generate(r *rand.Rand, st *Storage, n, label int) ([]Sample, error) {
	return sampleLots(&m.shape, m.net(), &m.genPool, &exactTel,
		r, st, m.Config.Batch, m.Config.workers(), n, label)
}

// net returns the generator's float64 inference forward, bitwise equal to
// the training forward pass (nn's float64 inference modules are pinned to
// it). The GRU's gate weights are packed from their current values, so
// it is built per call, never kept across training steps.
func (m *Model) net() *net[float64] {
	return &net[float64]{meta: m.metaGen.Infer(), gru: nn.FuseGRU(m.seqGRU), proj: m.seqProj.Infer()}
}
