package core

import (
	"repro/internal/dgan"
	"repro/internal/trace"
)

// Serving fast path (DESIGN.md §11): FastFlowSynthesizer and
// FastPacketSynthesizer embed their synthesizer's shared state (config,
// fitted codec, stats) over float32 inference-only snapshots of its chunk
// models, and run the same chunk fan-out (flowCodec.generate,
// packetCodec.generate) with dgan.InferLot lots, one request per call.
// Output is reproducible for a fixed seed at any parallelism, but it is
// NOT bitwise-equal to the float64 path; fidelity is pinned
// distributionally by internal/conformance instead.

// FastFlowSynthesizer is the float32 serving snapshot of a FlowSynthesizer.
type FastFlowSynthesizer struct {
	synthesizer[*flowCodec, *dgan.InferModel]
}

// Fast snapshots the trained synthesizer for serving. The snapshot shares
// the codec but owns its generation RNGs, so
// fast-path serving never perturbs the reference path's streams.
func (s *FlowSynthesizer) Fast() *FastFlowSynthesizer {
	return &FastFlowSynthesizer{fastSynthesizer(&s.synthesizer)}
}

// fastSynthesizer snapshots every chunk model to float32, each reseeded
// to its fast-mode generation stream.
func fastSynthesizer[C any](s *synthesizer[C, *dgan.Model]) synthesizer[C, *dgan.InferModel] {
	f := synthesizer[C, *dgan.InferModel]{cfg: s.cfg, codec: s.codec, stats: s.stats}
	for i, m := range s.models {
		im := m.Infer()
		im.Reseed(genSeed(s.cfg.Seed, fastGenStream, i))
		im.SetParallelism(s.cfg.Parallelism)
		f.models = append(f.models, im)
	}
	return f
}

// Generate produces approximately n synthetic flow records on the fast path.
func (s *FastFlowSynthesizer) Generate(n int) *trace.FlowTrace {
	return s.generate(n, -1)
}

// GenerateLabeled produces approximately n records conditioned on (and
// stamped with) one scenario label. It fails on snapshots of
// unconditional models and on out-of-range labels.
func (s *FastFlowSynthesizer) GenerateLabeled(n int, label trace.Label) (*trace.FlowTrace, error) {
	if err := s.checkLabel(int(label)); err != nil {
		return nil, err
	}
	return s.generate(n, int(label)), nil
}

// GenerateBatch returns one Generate per count, in order. Its only caller
// is e2ebench's replayer.
func (s *FastFlowSynthesizer) GenerateBatch(counts []int) []*trace.FlowTrace {
	outs := make([]*trace.FlowTrace, len(counts))
	for i, n := range counts {
		outs[i] = s.Generate(n)
	}
	return outs
}

// generate runs the flow fan-out on the float32 snapshots; label -1 is
// unconditional mixture generation, label >= 0 pins every chunk's draw to
// one scenario.
func (s *FastFlowSynthesizer) generate(n, label int) *trace.FlowTrace {
	return s.codec.generate(s.cfg, s.stats.ChunkSamples, n, label, func(i int) (sampleFunc, int) {
		return inferSampler(s.models[i], label), dgan.InferLot
	})
}

// FastPacketSynthesizer is the float32 serving snapshot of a
// PacketSynthesizer.
type FastPacketSynthesizer struct {
	synthesizer[*packetCodec, *dgan.InferModel]
}

// Fast snapshots the trained synthesizer for serving.
func (s *PacketSynthesizer) Fast() *FastPacketSynthesizer {
	return &FastPacketSynthesizer{fastSynthesizer(&s.synthesizer)}
}

// Generate produces approximately n synthetic packets on the fast path.
func (s *FastPacketSynthesizer) Generate(n int) *trace.PacketTrace {
	return s.codec.generate(s.cfg, s.stats.ChunkSamples, n, func(i int) (sampleFunc, int) {
		return inferSampler(s.models[i], -1), dgan.InferLot
	})
}

// inferSampler is m's sampler; label -1 draws the fitted label mixture,
// label >= 0 (range-checked by the caller, so sampling cannot fail) pins
// every sample to it.
func inferSampler(m *dgan.InferModel, label int) sampleFunc {
	return func(st *dgan.Storage, n int) []dgan.Sample {
		batch, _ := m.GenerateInto(st, n, label)
		return batch
	}
}
