package dgan

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Generation is organized in fixed-size lots. Each lot draws all of its
// randomness from a private stream derived from a single base value taken
// off the caller's RNG, and writes a disjoint span of the output slice, so
// the emitted samples are identical for every worker count — lots simply
// run on more or fewer goroutines. A call advances the caller's RNG by
// exactly one draw regardless of n or worker count, keeping generation
// streams aligned across train/save/load (DESIGN.md §8).
//
// sampleLots is the one lot driver behind both generate modes: Model runs
// it with the float64 net (bitwise equal to training's forward pass, lots
// of Config.Batch) and InferModel with the float32 serving net (DESIGN.md
// §11, lots of InferLot).

// shape is the generator geometry the lot driver reads. Model builds it
// from its Config; InferModel copies it from the Model it snapshots.
type shape struct {
	metaSchema []nn.FieldSpec
	featSchema []nn.FieldSpec // the feature schema plus the presence flag
	maxLen     int
	noiseDim   int
	hidden     int

	metaW, featW int // activated widths (featW includes the presence flag)
	condW        int // conditioning one-hot width (Config.Labels; 0 = off)

	// labelWeights is the empirical scenario-label distribution of the
	// training set, fitted by trainLoop and persisted with the model;
	// unconditional generation draws each sample's label from it. Nil
	// falls back to uniform.
	labelWeights []float64
}

func newShape(cfg Config) shape {
	feat := append(append([]nn.FieldSpec(nil), cfg.FeatureSchema...), presenceSpec)
	return shape{
		metaSchema: cfg.MetaSchema,
		featSchema: feat,
		maxLen:     cfg.MaxLen,
		noiseDim:   cfg.NoiseDim,
		hidden:     cfg.Hidden,
		metaW:      nn.Width(cfg.MetaSchema),
		featW:      nn.Width(feat),
		condW:      cfg.Labels,
	}
}

// LabelWeights returns a copy of the fitted scenario-label distribution
// (nil before training or on unconditional models).
func (g *shape) LabelWeights() []float64 {
	if g.labelWeights == nil {
		return nil
	}
	return append([]float64(nil), g.labelWeights...)
}

// checkLabel validates a pinned scenario label.
func (g *shape) checkLabel(label int) error {
	if g.condW == 0 {
		return fmt.Errorf("dgan: GenerateLabeled on an unconditional model")
	}
	if label < 0 || label >= g.condW {
		return fmt.Errorf("dgan: label %d out of range 0..%d", label, g.condW-1)
	}
	return nil
}

// net is the generator's inference forward in one element type: the
// metadata MLP, the fused GRU and the output projection. Model.generate
// builds a float64 one per call; InferModel keeps its float32 narrowing. It
// reads weights only, so one net serves every worker of a call.
type net[F nn.Float] struct {
	meta *nn.Layers[F]
	gru  *nn.FusedGRU[F]
	proj *nn.Layers[F]
}

// narrow returns the float32 snapshot of n, the fast path's weights.
func (n *net[F]) narrow() *net[float32] {
	return &net[float32]{meta: n.meta.Narrow(), gru: n.gru.Narrow(), proj: n.proj.Narrow()}
}

// lotScratch is one worker's reusable sampler state: noise, conditioned
// metadata input, GRU input, ping-pong hidden states, the live-row map and
// the labels, all sized for a full lot and re-sliced for a partial one,
// the network modules' scratch (which owns the metadata and projected
// step outputs), and the lot RNG, reseeded to each lot's stream.
type lotScratch[F nn.Float] struct {
	meta, proj      nn.LayersScratch[F]
	gru             nn.FusedGRUScratch[F]
	z, zc, x, h, h2 []F
	idx, labels     []int
	r               *rand.Rand
}

// seed points the lot RNG at stream seed; a reseeded rand.Rand draws
// exactly what a new one with that seed would.
func (sc *lotScratch[F]) seed(seed int64) *rand.Rand {
	if sc.r == nil {
		sc.r = rng.New(seed)
	} else {
		sc.r.Seed(seed)
	}
	return sc.r
}

// Storage is the backing of generated samples: the Sample values, their
// metadata rows, their feature-row headers and feature values. A generate
// into a Storage returns samples that point into it, valid until the
// Storage's next generate; callers that decode each batch before drawing
// the next reuse one Storage and allocate nothing per sample. The zero
// value is ready to use. The public Generate methods fill a fresh one, so
// the caller owns what they return.
type Storage struct {
	samples []Sample
	meta    []float64   // metaW per sample
	steps   [][]float64 // maxLen feature-row headers per sample
	feats   []float64   // maxLen×featW feature values per sample, the most a sample can emit
}

// lotOut is one lot's disjoint span of a Storage.
type lotOut struct {
	samples []Sample
	meta    []float64
	steps   [][]float64
	feats   []float64
}

// resize sizes st for n samples of shape g.
func (st *Storage) resize(g *shape, n int) {
	st.samples = grow(st.samples, n)
	st.meta = grow(st.meta, n*g.metaW)
	st.steps = grow(st.steps, n*g.maxLen)
	st.feats = grow(st.feats, n*g.maxLen*g.featW)
}

// lot returns samples [lo, hi) and their share of st's slabs.
func (st *Storage) lot(g *shape, lo, hi int) lotOut {
	steps, feats := g.maxLen, g.maxLen*g.featW
	return lotOut{
		samples: st.samples[lo:hi],
		meta:    st.meta[lo*g.metaW : hi*g.metaW],
		steps:   st.steps[lo*steps : hi*steps],
		feats:   st.feats[lo*feats : hi*feats],
	}
}

// lotTel is the telemetry one generate mode records per lot; nil handles
// record nothing.
type lotTel struct {
	lots, samples, stepsSaved *telemetry.Counter
	depth                     *telemetry.Histogram
}

// sampleLots produces n samples in lots of lot on up to workers
// goroutines, into st (a fresh Storage when nil). label < 0 draws each
// sample's label from the fitted distribution; label >= 0 pins every
// sample's label (checked here) and takes no label draws. The single base
// draw comes from src.
func sampleLots[F nn.Float](g *shape, fw *net[F], pool *sync.Pool, tel *lotTel,
	src interface{ Int63() int64 }, st *Storage, lot, workers, n, label int) ([]Sample, error) {
	if label >= 0 {
		if err := g.checkLabel(label); err != nil {
			return nil, err
		}
	}
	if n <= 0 {
		return nil, nil
	}
	base := src.Int63()
	numLots := (n + lot - 1) / lot
	if st == nil {
		st = new(Storage)
	}
	st.resize(g, n)

	runSpan := func(loLot, hiLot int) {
		sc, _ := pool.Get().(*lotScratch[F])
		if sc == nil {
			sc = new(lotScratch[F])
		}
		defer pool.Put(sc)
		for j := loLot; j < hiLot; j++ {
			lo, hi := j*lot, min((j+1)*lot, n)
			depth := sampleLot(g, fw, sc, sc.seed(rng.Derive(base, int64(j))), st.lot(g, lo, hi), label)
			tel.lots.Inc()
			tel.samples.Add(int64(hi - lo))
			tel.depth.Observe(float64(depth))
			tel.stepsSaved.Add(int64(g.maxLen - depth))
		}
	}

	workers = min(workers, numLots)
	if workers <= 1 {
		runSpan(0, numLots)
		return st.samples, nil
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
	return st.samples, nil
}

// sampleLot fills dst (one lot of samples and their storage) from r, the
// lot's private stream, and returns the number of GRU steps it ran. The
// draw order is fixed — label uniforms (mixture lots only), meta noise,
// meta sampling uniforms, then per executed step: noise for the full lot
// followed by the live rows' sampling uniforms in ascending row order —
// so a lot's content depends only on (weights, lot stream), never on
// which worker ran it.
//
// Live rows are compacted to the front of the step buffers as rows
// terminate, so the per-step matmuls shrink with the live count; every
// forward row depends only on its own inputs, so compaction changes no
// value. The unroll stops as soon as every row has terminated.
func sampleLot[F nn.Float](g *shape, fw *net[F], sc *lotScratch[F], r *rand.Rand, dst lotOut, label int) int {
	out := dst.samples
	rows := len(out)
	nd, hid, metaW, featW := g.noiseDim, g.hidden, g.metaW, g.featW
	inW := nd + metaW // GRU input: step noise ++ activated metadata
	sc.z = grow(sc.z, rows*nd)
	sc.x = grow(sc.x, rows*inW)
	sc.h = grow(sc.h, rows*hid)
	sc.h2 = grow(sc.h2, rows*hid)
	sc.idx = grow(sc.idx, rows)

	// Conditional lots fix each row's label before any noise is drawn: a
	// pinned label takes no draws, a mixture draw one uniform per row.
	if g.condW > 0 {
		sc.labels = grow(sc.labels, rows)
		for i := range sc.labels {
			if label >= 0 {
				sc.labels[i] = label
			} else {
				sc.labels[i] = drawLabelFrom(g.labelWeights, g.condW, r.Float64())
			}
		}
	}

	randNorm(sc.z, r)
	metaIn := sc.z
	if g.condW > 0 {
		cw := nd + g.condW
		sc.zc = grow(sc.zc, rows*cw)
		for i, l := range sc.labels {
			row := rowOf(sc.zc, i, cw)
			copy(row, rowOf(sc.z, i, nd))
			clear(row[nd:])
			row[nd+l] = 1
		}
		metaIn = sc.zc
	}
	meta := fw.meta.InferInto(metaIn, rows, &sc.meta)
	nn.ActivateRows(g.metaSchema, meta, rows)
	idx := sc.idx
	// Samples escape to the caller, so their metadata rows, feature-row
	// headers and feature values live in the lot's span of the Storage,
	// not in the pooled scratch. A sample's headers have room for every
	// step, so appending them never reallocates.
	for i := range out {
		out[i] = Sample{
			Meta:     dst.meta[i*metaW : (i+1)*metaW : (i+1)*metaW],
			Features: dst.steps[i*g.maxLen : i*g.maxLen : (i+1)*g.maxLen],
		}
		nn.SampleRow(out[i].Meta, g.metaSchema, rowOf(meta, i, metaW), r.Float64)
		if g.condW > 0 {
			out[i].Label = sc.labels[i]
		}
		idx[i] = i
	}
	feats := dst.feats

	h, hNext := sc.h, sc.h2
	clear(h)
	depth := 0
	for t := 0; t < g.maxLen && len(idx) > 0; t++ {
		depth = t + 1
		live := len(idx)
		randNorm(sc.z, r)
		x := sc.x[:live*inW]
		for c, i := range idx {
			row := rowOf(x, c, inW)
			copy(row, rowOf(sc.z, i, nd))
			copy(row[nd:], rowOf(meta, i, metaW))
		}
		fw.gru.StepInfer(x, h[:live*hid], hNext[:live*hid], live, &sc.gru)
		h, hNext = hNext, h
		proj := fw.proj.InferInto(h[:live*hid], live, &sc.proj)
		nn.ActivateRows(g.featSchema, proj, live)
		// A row whose stop flag fell below 0.5 after the first step
		// terminates its sequence without emitting this step.
		stops := func(c int) bool { return t > 0 && proj[(c+1)*featW-1] < 0.5 }
		kept := 0
		for c := range idx {
			if !stops(c) {
				kept++
			}
		}
		featSlab := feats[:kept*featW]
		feats = feats[kept*featW:]
		w := 0
		for c, i := range idx {
			if stops(c) {
				continue
			}
			full := rowOf(featSlab, w, featW)
			nn.SampleRow(full, g.featSchema, rowOf(proj, c, featW), r.Float64)
			out[i].Features = append(out[i].Features, full[:featW-1:featW-1])
			if w != c {
				copy(rowOf(h, w, hid), rowOf(h, c, hid))
			}
			idx[w] = i
			w++
		}
		idx = idx[:w]
	}
	return depth
}

// randNorm fills z with N(0,1) draws, one NormFloat64 per element, so both
// element types consume the same stream layout.
func randNorm[F nn.Float](z []F, r *rand.Rand) {
	for i := range z {
		z[i] = F(r.NormFloat64())
	}
}

// rowOf returns row i of the row-major buffer b with w columns.
func rowOf[F any](b []F, i, w int) []F { return b[i*w : (i+1)*w] }

// grow returns b resized to n elements, reallocating only when too small.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
