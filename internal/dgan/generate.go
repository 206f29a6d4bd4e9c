package dgan

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Generation is organized in fixed-size lots of Config.Batch samples. Each
// lot draws all of its randomness from a private stream derived from a
// single base value taken off the model RNG, and writes a disjoint span of
// the output slice, so the emitted samples are bitwise identical for every
// Config.Parallelism setting — lots simply run on more or fewer goroutines.
// Generate advances the model's canonical RNG by exactly one draw per call
// regardless of n or worker count, keeping generation streams aligned across
// train/save/load (DESIGN.md §8).

// genScratch is one worker's reusable forward state: noise, GRU input and
// hidden buffers, the projected step output, and the per-row liveness mask.
// All buffers are sized for a full lot and viewed down for a partial final
// lot, so a worker allocates on its first lot only.
type genScratch struct {
	mlp    nn.MLPScratch
	gru    nn.GRUScratch
	z      *mat.Matrix // lot × NoiseDim step/meta noise
	zc     *mat.Matrix // lot × (NoiseDim + condW) conditioned meta input
	x      *mat.Matrix // lot × (NoiseDim + metaW) GRU input
	h, h2  *mat.Matrix // lot × Hidden ping-pong hidden states
	proj   *mat.Matrix // lot × featW projected step output
	alive  []bool
	labels []int
}

// growBuf returns b viewed at rows×cols, reallocating when too small.
func growBuf(b *mat.Matrix, rows, cols int) *mat.Matrix {
	if b == nil || b.Cols != cols || b.Rows < rows {
		b = mat.New(rows, cols)
	}
	return b
}

func (sc *genScratch) ensure(batch, noiseDim, condW, metaW, hidden, featW int) {
	sc.z = growBuf(sc.z, batch, noiseDim)
	sc.x = growBuf(sc.x, batch, noiseDim+metaW)
	sc.h = growBuf(sc.h, batch, hidden)
	sc.h2 = growBuf(sc.h2, batch, hidden)
	sc.proj = growBuf(sc.proj, batch, featW)
	if cap(sc.alive) < batch {
		sc.alive = make([]bool, batch)
	}
	if condW > 0 {
		sc.zc = growBuf(sc.zc, batch, noiseDim+condW)
		if cap(sc.labels) < batch {
			sc.labels = make([]int, batch)
		}
	}
}

// Generate produces n synthetic samples. Categorical fields are sampled
// from the generator's softmax distributions; sequences are cut at the
// first step whose presence flag falls below 0.5 (minimum length 1). Work
// is fanned out across Config.Parallelism workers in lots of Config.Batch
// on derived RNG streams; the result is byte-identical at every setting.
// On conditional models each sample's scenario label is drawn from the
// fitted training distribution (a mixture over the label catalog).
func (m *Model) Generate(n int) []Sample {
	return m.generate(m.rng, n, -1)
}

// GenerateLabeled produces n synthetic samples all conditioned on the
// given scenario label. It fails on unconditional models and out-of-range
// labels.
func (m *Model) GenerateLabeled(n, label int) ([]Sample, error) {
	if err := m.checkLabel(label); err != nil {
		return nil, err
	}
	return m.generate(m.rng, n, label), nil
}

// GenerateFrom is Generate (label < 0) or GenerateLabeled drawing the
// single lot-stream base from r instead of the model's RNG. It leaves the
// model untouched, so concurrent calls with distinct r are safe: weights
// are read-only during generation and scratch comes from a sync.Pool.
func (m *Model) GenerateFrom(r *rand.Rand, n, label int) ([]Sample, error) {
	if label >= 0 {
		if err := m.checkLabel(label); err != nil {
			return nil, err
		}
	}
	return m.generate(r, n, label), nil
}

func (m *Model) checkLabel(label int) error {
	if m.condW == 0 {
		return fmt.Errorf("dgan: GenerateLabeled on an unconditional model")
	}
	if label < 0 || label >= m.condW {
		return fmt.Errorf("dgan: label %d out of range 0..%d", label, m.condW-1)
	}
	return nil
}

// generate is the shared lot fan-out; label -1 draws per-sample labels
// from the fitted distribution, label >= 0 pins every sample's label (and
// takes no label draws, so pinned lots consume the same noise stream
// layout minus the per-row label uniforms).
func (m *Model) generate(r *rand.Rand, n, label int) []Sample {
	if n <= 0 {
		return nil
	}
	// The lot-stream base is the single draw a call takes from r (the
	// model's canonical RNG for Generate): repeated calls stay aligned
	// across parallelism levels and across a save/load round trip.
	base := r.Int63()
	lot := m.Config.Batch
	numLots := (n + lot - 1) / lot
	out := make([]Sample, n)
	schema := m.featSchema()

	runSpan := func(loLot, hiLot int) {
		sc := m.genScratch()
		defer m.putGenScratch(sc)
		for j := loLot; j < hiLot; j++ {
			lo := j * lot
			hi := lo + lot
			if hi > n {
				hi = n
			}
			r := rng.New(rng.Derive(base, int64(j)))
			m.generateLot(r, out[lo:hi], schema, sc, label)
		}
	}

	workers := m.Config.workers()
	if workers > numLots {
		workers = numLots
	}
	if workers <= 1 {
		runSpan(0, numLots)
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*numLots/workers, (w+1)*numLots/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			runSpan(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// generateLot fills out (one lot of samples) from r, the lot's private
// stream. The draw order is fixed — meta noise, meta sampling uniforms, then
// per executed step: step noise followed by the live rows' sampling uniforms
// — so a lot's content depends only on (weights, lot stream), never on which
// worker ran it. The GRU unroll stops as soon as every row in the lot has
// terminated, not at MaxLen; termination is decided by the forward outputs,
// which are deterministic per lot, so early exit preserves determinism.
func (m *Model) generateLot(r *rand.Rand, out []Sample, schema []nn.FieldSpec, sc *genScratch, label int) {
	cfg := m.Config
	batch := len(out)
	sc.ensure(batch, cfg.NoiseDim, m.condW, m.metaW, cfg.Hidden, m.featW)

	// Conditional lots fix each row's label before any noise is drawn: a
	// pinned label takes no draws, a mixture draw takes one uniform per
	// row in row order.
	if m.condW > 0 {
		for i := 0; i < batch; i++ {
			if label >= 0 {
				sc.labels[i] = label
			} else {
				sc.labels[i] = m.drawLabel(r.Float64)
			}
		}
	}

	z := sc.z.RowsView(0, batch)
	z.RandNorm(r, 1)
	metaIn := z
	if m.condW > 0 {
		zc := sc.zc.RowsView(0, batch)
		for i := 0; i < batch; i++ {
			row := zc.Row(i)
			copy(row[:cfg.NoiseDim], z.Row(i))
			cond := row[cfg.NoiseDim:]
			for j := range cond {
				cond[j] = 0
			}
			cond[sc.labels[i]] = 1
		}
		metaIn = zc
	}
	meta := m.metaGen.InferInto(metaIn, &sc.mlp)
	nn.ActivateRows(cfg.MetaSchema, meta)
	for i := range out {
		out[i].Meta = nn.SampleRow(cfg.MetaSchema, meta.Row(i), false, r.Float64)
		out[i].Features = out[i].Features[:0]
		if m.condW > 0 {
			out[i].Label = sc.labels[i]
		}
		sc.alive[i] = true
	}

	x := sc.x.RowsView(0, batch)
	h := sc.h.RowsView(0, batch)
	hNext := sc.h2.RowsView(0, batch)
	proj := sc.proj.RowsView(0, batch)
	h.Zero()
	live := batch
	depth := 0
	for t := 0; t < cfg.MaxLen && live > 0; t++ {
		depth = t + 1
		z.RandNorm(r, 1)
		for i := 0; i < batch; i++ {
			row := x.Row(i)
			copy(row[:cfg.NoiseDim], z.Row(i))
			copy(row[cfg.NoiseDim:], meta.Row(i))
		}
		m.seqGRU.StepInfer(x, h, hNext, &sc.gru)
		h, hNext = hNext, h
		m.seqProj.InferStepInto(h, proj)
		nn.ActivateRows(schema, proj)
		for i := 0; i < batch; i++ {
			if !sc.alive[i] {
				continue
			}
			row := proj.Row(i)
			if t > 0 && row[m.featW-1] < 0.5 {
				sc.alive[i] = false
				live--
				continue
			}
			full := nn.SampleRow(schema, row, false, r.Float64)
			out[i].Features = append(out[i].Features, full[:m.featW-1])
		}
	}
	telGenLots.Inc()
	telGenSamples.Add(int64(batch))
	telUnrollDepth.Observe(float64(depth))
	telStepsSaved.Add(int64(cfg.MaxLen - depth))
}

// genScratch pops a scratch holder off the model's pool (or builds a fresh
// one); putGenScratch returns it. Scratch holds no weights, only buffers, so
// any holder works with any lot.
func (m *Model) genScratch() *genScratch {
	if sc, ok := m.genPool.Get().(*genScratch); ok {
		return sc
	}
	return &genScratch{}
}

func (m *Model) putGenScratch(sc *genScratch) { m.genPool.Put(sc) }
