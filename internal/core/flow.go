package core

import (
	"fmt"
	"math"

	"repro/internal/dgan"
	"repro/internal/encoding"
	"repro/internal/ip2vec"
	"repro/internal/nn"
	"repro/internal/trace"
)

// flowCodec converts between trace.FlowSeries and dgan samples: the
// metadata is the encoded five-tuple plus flow tags, the measurement
// sequence is one element per NetFlow record (start, duration, packets,
// bytes, label) per the paper's §4.1.
type flowCodec struct {
	tupleCodec

	timeNorm encoding.MinMax // flow start times (global)
	durNorm  scalarCodec
	pktNorm  scalarCodec
	bytNorm  scalarCodec
}

// scalarCodec abstracts over encoding.MinMax and encoding.LogMinMax so the
// log-transform ablation can swap them and persistence can capture their
// fitted ranges.
type scalarCodec interface {
	Fit(xs []float64)
	Transform(x float64) float64
	Inverse(y float64) float64
	Range() (lo, hi float64, ok bool)
	RestoreRange(lo, hi float64)
}

// newScalarCodec selects the Insight 2 log transform unless disabled.
func newScalarCodec(cfg Config) scalarCodec {
	if cfg.DisableLogTransform {
		return &encoding.MinMax{}
	}
	return &encoding.LogMinMax{}
}

func newFlowCodec(cfg Config, embed *portEmbedding, t *trace.FlowTrace) *flowCodec {
	c := &flowCodec{
		tupleCodec: tupleCodec{cfg: cfg, embed: embed},
		durNorm:    newScalarCodec(cfg),
		pktNorm:    newScalarCodec(cfg),
		bytNorm:    newScalarCodec(cfg),
	}
	starts := make([]float64, 0, len(t.Records))
	durs := make([]float64, 0, len(t.Records))
	pkts := make([]float64, 0, len(t.Records))
	byts := make([]float64, 0, len(t.Records))
	for _, r := range t.Records {
		starts = append(starts, float64(r.Start))
		durs = append(durs, float64(r.Duration))
		pkts = append(pkts, float64(r.Packets))
		byts = append(byts, float64(r.Bytes))
	}
	c.timeNorm.Fit(starts)
	c.durNorm.Fit(durs)
	c.pktNorm.Fit(pkts)
	c.bytNorm.Fit(byts)
	return c
}

func (c *flowCodec) featureSchema() []nn.FieldSpec {
	return []nn.FieldSpec{
		{Name: "start", Kind: nn.FieldContinuous, Size: 1},
		{Name: "duration", Kind: nn.FieldContinuous, Size: 1},
		{Name: "packets", Kind: nn.FieldContinuous, Size: 1},
		{Name: "bytes", Kind: nn.FieldContinuous, Size: 1},
		{Name: "label", Kind: nn.FieldCategorical, Size: int(trace.NumLabels)},
	}
}

// encode converts a tagged series into a training sample, truncating the
// record sequence at MaxLen. Under Conditional training the sample carries
// the series' majority record label as its scenario label.
func (c *flowCodec) encode(t *trace.TaggedFlowSeries) dgan.Sample {
	s := dgan.Sample{Meta: c.encodeMeta(t.Series.Tuple, t.Tags)}
	if c.cfg.Conditional {
		s.Label = int(majorityLabel(t.Series.Records))
	}
	for i, r := range t.Series.Records {
		if i >= c.cfg.MaxLen {
			break
		}
		f := make([]float64, 0, nn.Width(c.featureSchema()))
		f = append(f,
			c.timeNorm.Transform(float64(r.Start)),
			c.durNorm.Transform(float64(r.Duration)),
			c.pktNorm.Transform(float64(r.Packets)),
			c.bytNorm.Transform(float64(r.Bytes)),
		)
		label := make([]float64, trace.NumLabels)
		if int(r.Label) < len(label) {
			label[r.Label] = 1
		}
		s.Features = append(s.Features, append(f, label...))
	}
	return s
}

// majorityLabel returns the most frequent record label of a series; ties
// break toward the lowest label value so the choice is deterministic.
func majorityLabel(recs []trace.FlowRecord) trace.Label {
	var counts [trace.NumLabels]int
	for _, r := range recs {
		if r.Label < trace.NumLabels {
			counts[r.Label]++
		}
	}
	best := trace.Label(0)
	for l := trace.Label(1); l < trace.NumLabels; l++ {
		if counts[l] > counts[best] {
			best = l
		}
	}
	return best
}

// decode converts a generated sample back into flow records (post-
// processing: inverse transforms, integer rounding, label argmax).
func (c *flowCodec) decode(s dgan.Sample) []trace.FlowRecord {
	return c.appendRecords(nil, s, c.decodeMeta(s.Meta))
}

// appendRecords appends s's records to dst, with the five-tuple already
// resolved — the generation pipeline decodes tuples for a whole batch at
// once (decodeTuples) and appends every sample's records straight into
// its chunk's output.
func (c *flowCodec) appendRecords(dst []trace.FlowRecord, s dgan.Sample, ft trace.FiveTuple) []trace.FlowRecord {
	for _, f := range s.Features {
		rec := trace.FlowRecord{Tuple: ft}
		rec.Start = int64(c.timeNorm.Inverse(f[0]))
		rec.Duration = int64(c.durNorm.Inverse(f[1]))
		rec.Packets = int64(math.Round(c.pktNorm.Inverse(f[2])))
		if rec.Packets < 1 {
			rec.Packets = 1
		}
		rec.Bytes = int64(math.Round(c.bytNorm.Inverse(f[3])))
		if rec.Bytes < 1 {
			rec.Bytes = 1
		}
		for l := 0; l < int(trace.NumLabels); l++ {
			if f[4+l] == 1 {
				rec.Label = trace.Label(l)
				break
			}
		}
		dst = append(dst, rec)
	}
	return dst
}

// FlowSynthesizer is a trained NetShare model for NetFlow traces.
type FlowSynthesizer struct {
	synthesizer[*flowCodec, *dgan.Model]
}

// TrainFlowSynthesizer runs the full NetShare pipeline on a flow trace:
// it plans the training and runs every chunk task in this process.
// public supplies the IP2Vec corpus (and DP pre-training data when
// configured); the paper uses a CAIDA backbone trace.
func TrainFlowSynthesizer(t *trace.FlowTrace, public *trace.PacketTrace, cfg Config) (*FlowSynthesizer, error) {
	plan, err := PlanFlowTraining(t, public, cfg)
	if err != nil {
		return nil, err
	}
	return plan.Train(Executor{})
}

// buildFlowTraining is the deterministic preparation behind
// PlanFlowTraining: validate, fit the embeddings and codec, then
// split/chunk/encode the trace into per-chunk sample sets. Everything
// here depends only on (t, public, cfg), so every process that runs it
// reproduces identical samples.
func buildFlowTraining(t *trace.FlowTrace, public *trace.PacketTrace, cfg Config) (*flowCodec, [][]dgan.Sample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(t.Records) == 0 {
		return nil, nil, fmt.Errorf("core: empty flow trace")
	}
	if public == nil || len(public.Packets) == 0 {
		return nil, nil, fmt.Errorf("core: a public packet trace is required for the port embedding")
	}
	embed, err := newPortEmbedding(public, cfg.EmbedDim, cfg.EmbedEpochs, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	codec := newFlowCodec(cfg, embed, t)
	if cfg.IPVectorEncoding {
		ipEmbed, err := newIPEmbedding(ip2vec.FlowSentences(t), cfg.EmbedDim, cfg.EmbedEpochs, cfg.Seed+3)
		if err != nil {
			return nil, nil, err
		}
		codec.ipEmbed = ipEmbed
	}

	// Insight 1: merge epochs (the input is already merged), split by
	// five-tuple; Insight 3: chunk by time with flow tags.
	series := trace.SplitFlowSeries(t)
	chunks := trace.ChunkFlowSeries(series, cfg.Chunks)
	chunkSamples := make([][]dgan.Sample, len(chunks))
	for i, chunk := range chunks {
		for _, tagged := range chunk {
			chunkSamples[i] = append(chunkSamples[i], codec.encode(tagged))
		}
	}
	if len(chunkSamples[0]) == 0 {
		return nil, nil, fmt.Errorf("core: seed chunk is empty; reduce Chunks")
	}
	return codec, chunkSamples, nil
}

// publicFlowSamples converts a public packet trace into flow-style training
// samples for DP pre-training.
func publicFlowSamples(codec *flowCodec, public *trace.PacketTrace, cfg Config) []dgan.Sample {
	flows := trace.SplitFlows(public)
	samples := make([]dgan.Sample, 0, len(flows))
	for _, f := range flows {
		var bytes int64
		for _, p := range f.Packets {
			bytes += int64(p.Size)
		}
		rec := trace.FlowRecord{
			Tuple:    f.Tuple,
			Start:    f.Start(),
			Duration: f.End() - f.Start(),
			Packets:  int64(len(f.Packets)),
			Bytes:    bytes,
		}
		tagged := &trace.TaggedFlowSeries{
			Series: &trace.FlowSeries{Tuple: f.Tuple, Records: []trace.FlowRecord{rec}},
			Tags:   trace.FlowTags{StartsHere: true, Presence: make([]bool, cfg.Chunks)},
		}
		samples = append(samples, codec.encode(tagged))
	}
	return samples
}

func ganConfig(cfg Config, meta, feat []nn.FieldSpec) dgan.Config {
	g := dgan.DefaultConfig()
	g.MetaSchema = meta
	g.FeatureSchema = feat
	g.MaxLen = cfg.MaxLen
	g.Hidden = cfg.Hidden
	g.Batch = cfg.Batch
	g.NoiseDim = cfg.NoiseDim
	g.CriticIters = cfg.CriticIters
	g.GPWeight = cfg.GPWeight
	g.LR = cfg.LR
	g.Seed = cfg.Seed
	g.Parallelism = cfg.Parallelism
	if cfg.Conditional {
		g.Labels = int(trace.NumLabels)
	}
	return g
}

// Generate produces approximately n synthetic flow records, drawing flow
// samples from each chunk model proportionally to the chunk's training
// share and reassembling by start time (§4.2 post-processing). Chunk models
// generate concurrently (each on its own canonical RNG stream) and their
// records are merged in chunk order before sorting, so the emitted trace is
// byte-identical at every parallelism setting.
func (s *FlowSynthesizer) Generate(n int) *trace.FlowTrace {
	return s.generate(n, -1, false)
}

// GenerateLabeled produces approximately n synthetic flow records all
// conditioned on (and stamped with) the given scenario label. It fails on
// models trained without Config.Conditional and on out-of-range labels.
func (s *FlowSynthesizer) GenerateLabeled(n int, label trace.Label) (*trace.FlowTrace, error) {
	if err := s.checkLabel(int(label)); err != nil {
		return nil, err
	}
	return s.generate(n, int(label), false), nil
}

// GenerateFresh returns what the first Generate (label < 0) or
// GenerateLabeled(n, label) of a freshly loaded copy of s returns, byte
// for byte, without touching the chunk models' RNG: each call builds its
// own copies of the canonical generation streams. It is safe for
// concurrent calls, so one decoded model can serve many deterministic
// requests at once.
func (s *FlowSynthesizer) GenerateFresh(n, label int) (*trace.FlowTrace, error) {
	if label >= 0 {
		if err := s.checkLabel(label); err != nil {
			return nil, err
		}
	}
	return s.generate(n, label, true), nil
}

// generate runs the flow fan-out as one request on the float64 chunk
// models; label -1 is unconditional mixture generation, label >= 0 pins
// every chunk's draw to one scenario. fresh selects per-call copies of the
// generation streams (genRand).
func (s *FlowSynthesizer) generate(n, label int, fresh bool) *trace.FlowTrace {
	return s.codec.generate(s.cfg, s.stats.ChunkSamples, n, label, func(i int) (sampleFunc, int) {
		m, r := s.models[i], genRand(s.cfg, s.models[i], i, fresh)
		// The label was range-checked by the caller and the model was
		// trained conditionally, so sampling cannot fail.
		return func(st *dgan.Storage, n int) []dgan.Sample {
			batch, _ := m.GenerateFrom(r, st, n, label)
			return batch
		}, m.Config.Batch
	})
}

// generate is the flow kind's one chunk fan-out, run by both generate
// modes: the count is split across the chunks (fillChunks), each chunk's
// quota is filled from sample(i), and the chunks' records are joined in
// chunk order and sorted by start time.
func (c *flowCodec) generate(cfg Config, shares []int, n, label int, sample chunkSampler) *trace.FlowTrace {
	defer telGeneratePhase.Start().Stop()
	chunks := fillChunks(cfg, shares, n, func(i, budget int) *genScratch {
		gen, lot := sample(i)
		return c.fillChunk(gen, lot, budget, label)
	})
	var total int
	for _, sc := range chunks {
		total += len(sc.records)
	}
	out := &trace.FlowTrace{Records: make([]trace.FlowRecord, 0, total)}
	for _, sc := range chunks {
		out.Records = append(out.Records, sc.records...)
		genPool.Put(sc)
	}
	out.SortByStart()
	return out
}

// fillChunk fills one chunk's record budget from gen, the chunk
// model's generator, into the records of a genScratch it takes from
// genPool (the caller joins them into the trace and puts it back).
// Samples are flows and records per flow vary, so it generates flows
// until the budget is met — always requesting whole generation lots of
// lot (partial lots waste a forward pass) and trimming the overshoot.
// Every batch is decoded before the next one overwrites the scratch's
// samples. A pinned label
// (label >= 0) additionally stamps every emitted record with that
// scenario, making the conditional slice authoritative.
func (c *flowCodec) fillChunk(gen sampleFunc, lot, budget, label int) *genScratch {
	sc := genPool.Get().(*genScratch)
	out := resize(sc.records, budget)[:0]
	for budget > 0 {
		batch := gen(&sc.samples, fullLots(budget, lot))
		if len(batch) == 0 {
			break
		}
		tuples := sc.tuples.decode(c.embed, c.ipEmbed, batch)
		for bi, sample := range batch {
			if budget == 0 {
				break
			}
			sample.Features = sample.Features[:min(len(sample.Features), budget)]
			n := len(out)
			out = c.appendRecords(out, sample, tuples[bi])
			if label >= 0 {
				for k := n; k < len(out); k++ {
					out[k].Label = trace.Label(label)
				}
			}
			budget -= len(out) - n
		}
	}
	sc.records = out
	return sc
}

// TransformIPs remaps every generated address into the given base/mask
// range — the optional privacy extension of §5 (IP transformation to a
// user-specified or default private range).
func TransformIPs(t *trace.FlowTrace, base trace.IPv4, maskBits int) {
	mask := trace.IPv4(0)
	if maskBits > 0 {
		mask = trace.IPv4(^uint32(0) << (32 - maskBits))
	}
	for i := range t.Records {
		r := &t.Records[i]
		r.Tuple.SrcIP = base&mask | r.Tuple.SrcIP&^mask
		r.Tuple.DstIP = base&mask | r.Tuple.DstIP&^mask
	}
}
