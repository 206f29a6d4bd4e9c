package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dgan"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The generation machinery both generate modes of both trace kinds share:
// the synthesizer state they embed, the chunk fan-out's quota split and
// concurrent fill, and the canonical per-chunk generation streams.

// chunkModel is what the shared synthesizer state needs of a chunk model
// of either generate mode: *dgan.Model (exact) or *dgan.InferModel (fast).
type chunkModel interface {
	LabelWeights() []float64
	SetParallelism(n int)
}

// synthesizer is the state and methods both generate modes of a trace
// kind share: FlowSynthesizer and FastFlowSynthesizer embed it over the
// flow codec, PacketSynthesizer and FastPacketSynthesizer over the packet
// codec, with the float64 or float32 chunk models.
type synthesizer[C any, M chunkModel] struct {
	cfg    Config
	codec  C
	models []M
	stats  Stats
}

// Stats returns the training cost report.
func (s *synthesizer[C, M]) Stats() Stats { return s.stats }

// SetParallelism retargets the generation (and any further training) worker
// count of every chunk model: 0 = NumCPU, 1 = serial. Output is
// independent of the setting.
func (s *synthesizer[C, M]) SetParallelism(n int) {
	s.cfg.Parallelism = n
	for _, m := range s.models {
		m.SetParallelism(n)
	}
}

// Conditional reports whether the model was trained with scenario-label
// conditioning (Config.Conditional; always false for packet models).
func (s *synthesizer[C, M]) Conditional() bool { return s.cfg.Conditional }

// LabelCatalog returns the scenario labels observed during training — the
// union of labels with positive fitted weight across the chunk models, in
// ascending order. It is empty on unconditional models.
func (s *synthesizer[C, M]) LabelCatalog() []trace.Label {
	var seen [trace.NumLabels]bool
	for _, m := range s.models {
		for l, p := range m.LabelWeights() {
			if p > 0 && l < int(trace.NumLabels) {
				seen[l] = true
			}
		}
	}
	var out []trace.Label
	for l := trace.Label(0); l < trace.NumLabels; l++ {
		if seen[l] {
			out = append(out, l)
		}
	}
	return out
}

// checkLabel rejects labeled generation on unconditional models and
// out-of-range labels.
func (s *synthesizer[C, M]) checkLabel(label int) error {
	if !s.cfg.Conditional {
		return fmt.Errorf("core: labeled generation requires a model trained with Config.Conditional")
	}
	if label < 0 || label >= int(trace.NumLabels) {
		return fmt.Errorf("core: label %d out of range 0..%d", label, trace.NumLabels-1)
	}
	return nil
}

// chunkSampler returns chunk i's sampler and the lot size its requests
// are rounded up to: the exact mode's float64 model on its canonical
// stream with the training batch, or the fast mode's float32 snapshot
// with dgan.InferLot.
type chunkSampler func(i int) (gen sampleFunc, lot int)

// sampleFunc generates n samples into st; they stay valid until st's next
// generate (see dgan.Storage).
type sampleFunc func(st *dgan.Storage, n int) []dgan.Sample

// genScratch is one chunk fill's reusable storage: the samples its
// generator writes into, the batched tuple decode's scratch, and (for
// flows) the decoded records, joined into the trace before the scratch
// goes back to genPool. Only the returned traces escape a generate, so
// after the first request a fill allocates no sample storage.
type genScratch struct {
	samples dgan.Storage
	tuples  tupleScratch
	records []trace.FlowRecord
}

var genPool = sync.Pool{New: func() any { return new(genScratch) }}

// fillChunks is the kind-independent half of the one chunk fan-out both
// generate modes run (§4.2): it splits the count n across the chunks in
// proportion to their training share (a count below zero is an empty
// request), then fills each chunk's quota with fill, concurrently per
// forEachChunk. The fills come back in chunk order.
func fillChunks[T any](cfg Config, shares []int, n int, fill func(i, budget int) T) []T {
	quotas := splitCounts(max(n, 0), shares)
	chunks := make([]T, len(shares))
	forEachChunk(cfg, len(shares), func(i int) {
		chunks[i] = fill(i, quotas[i])
	})
	return chunks
}

// splitCounts apportions n generated samples across chunks proportionally
// to their real sample counts (empty chunks get none).
func splitCounts(n int, chunkSizes []int) []int {
	var total int
	for _, c := range chunkSizes {
		total += c
	}
	out := make([]int, len(chunkSizes))
	if total == 0 {
		return out
	}
	assigned := 0
	for i, c := range chunkSizes {
		out[i] = n * c / total
		assigned += out[i]
	}
	// Distribute the remainder to the largest chunks first.
	for i := 0; assigned < n; i = (i + 1) % len(chunkSizes) {
		if chunkSizes[i] > 0 {
			out[i]++
			assigned++
		}
	}
	return out
}

// forEachChunk runs fn(i) for every chunk index, on up to the resolved
// Parallelism worker count of goroutines (0 = NumCPU) when the
// configuration enables parallelism and there is more than one chunk. The
// workers take chunk indices in order. Each fn must touch only chunk i's
// state (plus read-only shared data, like the fitted codec), which is what
// keeps parallel and serial generation byte-identical.
func forEachChunk(cfg Config, n int, fn func(int)) {
	workers := cfg.Parallelism
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	if !cfg.Parallel || workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// fullLots sizes a generation request for a remaining record budget: aim for
// budget/2 flows (flows carry at least one record each, usually more), but
// never issue less than one lot, and round up to whole lots so the GAN's
// batched forward passes always run full (a partial lot costs the same
// matmuls for fewer samples). The overshoot is trimmed by the caller.
func fullLots(budget, lot int) int {
	want := max(budget/2, 1)
	return (want + lot - 1) / lot * lot
}

// dpNoiseStream is the rng.Derive stream index reserved for the DP-SGD
// Gaussian noise source, outside the chunk-index stream range;
// genStream+idx are the reserved post-training generation streams of the
// exact mode and fastGenStream+idx those of the float32 snapshots, so the
// fast mode never replays or disturbs the exact mode's draws.
const (
	dpNoiseStream = 1 << 32
	genStream     = 1 << 33
	fastGenStream = 1 << 34
)

// genSeed is chunk i's canonical generation seed in the stream range
// stream (genStream or fastGenStream). Plan assembly, the loaders, fresh
// generates and Fast() all seed chunk models through it.
func genSeed(seed, stream int64, i int) int64 {
	return rng.Derive(seed, stream+int64(i))
}

// genRand returns chunk model m's (index i) generation stream: its own
// RNG, or with fresh a new copy of the canonical stream that training and
// loading reseed it to, so fresh generation replays a just-loaded model.
func genRand(cfg Config, m *dgan.Model, i int, fresh bool) *rand.Rand {
	if fresh {
		return rng.New(genSeed(cfg.Seed, genStream, i))
	}
	return m.Rand()
}
