package dgan

import (
	"math/rand"
	"sync"
)

// InferModel is a float32, generator-only snapshot of a trained Model: the
// serving fast path of DESIGN.md §11. It carries no critics, no optimizer
// state, and no training caches — just the metadata MLP, the fused GRU,
// and the output projection, all narrowed to float32. Its Generate runs
// the same lot driver as Model's (one base draw per call, derived per-lot
// streams, disjoint output spans) so output is reproducible for a fixed
// seed and independent of the worker count, but it does NOT share the
// float64 path's bitwise-determinism contract: float32 rounding and the
// polynomial activations shift individual values, and only the output
// distributions are pinned (internal/conformance).
type InferModel struct {
	shape
	// parallelism is the generation worker count (0 = NumCPU, 1 = serial),
	// set by Infer and SetParallelism.
	parallelism int

	net *net[float32]

	rng  lockedRand
	pool sync.Pool
}

// InferLot is the fast path's lot size: large enough that the per-step
// matmuls stop being loop-overhead-bound at the repo's typical hidden
// widths, small enough that a partial final lot wastes little work. The
// fast path is free to run larger lots than Config.Batch because no
// bitwise contract ties its lot boundaries to training.
const InferLot = 64

// Infer snapshots the model's generator as a float32 fast-path instance.
// The snapshot is seeded with Config.Seed; callers wanting a specific
// generation stream should Reseed it (core derives per-chunk streams).
func (m *Model) Infer() *InferModel {
	im := &InferModel{
		shape:       m.shape,
		parallelism: m.Config.Parallelism,
		net:         m.net().narrow(),
	}
	im.labelWeights = m.LabelWeights()
	im.Reseed(m.Config.Seed)
	return im
}

// Reseed replaces the canonical generation RNG.
func (im *InferModel) Reseed(seed int64) {
	im.rng.mu.Lock()
	im.rng.r = rand.New(rand.NewSource(seed))
	im.rng.mu.Unlock()
}

// SetParallelism retargets the generation worker count (0 = NumCPU,
// 1 = serial). Output is independent of the setting.
func (im *InferModel) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	im.parallelism = n
}

// Generate produces n synthetic samples on the fast path: one base draw
// off the canonical RNG per call, each lot on its own derived stream
// writing a disjoint span, so repeated calls from a fixed seed are
// reproducible at any parallelism. On conditional snapshots each sample's
// label is drawn from the fitted label distribution.
func (im *InferModel) Generate(n int) []Sample {
	out, _ := im.generate(nil, n, -1)
	return out
}

// GenerateLabeled produces n samples all conditioned on the given
// scenario label. It fails on unconditional snapshots and out-of-range
// labels.
func (im *InferModel) GenerateLabeled(n, label int) ([]Sample, error) {
	if label < 0 {
		return nil, im.checkLabel(label)
	}
	return im.generate(nil, n, label)
}

// GenerateInto is Generate (label < 0) or GenerateLabeled into st: the
// samples point into st and stay valid until its next generate (see
// Storage). Concurrent calls need distinct Storages.
func (im *InferModel) GenerateInto(st *Storage, n, label int) ([]Sample, error) {
	return im.generate(st, n, label)
}

func (im *InferModel) generate(st *Storage, n, label int) ([]Sample, error) {
	workers := Config{Parallelism: im.parallelism}.workers()
	return sampleLots(&im.shape, im.net, &im.pool, &inferTel,
		&im.rng, st, InferLot, workers, n, label)
}

// lockedRand serializes concurrent generate calls' base draws.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func (l *lockedRand) Int63() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Int63()
}
