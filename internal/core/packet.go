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

// packetCodec converts between trace.PacketFlow and dgan samples: the
// metadata is the encoded five-tuple plus flow tags, the measurement
// sequence is one element per packet (timestamp, size, TTL) per §4.1.
type packetCodec struct {
	tupleCodec

	timeNorm encoding.MinMax
	sizeNorm scalarCodec
}

func newPacketCodec(cfg Config, embed *portEmbedding, t *trace.PacketTrace) *packetCodec {
	c := &packetCodec{tupleCodec: tupleCodec{cfg: cfg, embed: embed}, sizeNorm: newScalarCodec(cfg)}
	times := make([]float64, 0, len(t.Packets))
	sizes := make([]float64, 0, len(t.Packets))
	for _, p := range t.Packets {
		times = append(times, float64(p.Time))
		sizes = append(sizes, float64(p.Size))
	}
	c.timeNorm.Fit(times)
	c.sizeNorm.Fit(sizes)
	return c
}

func (c *packetCodec) featureSchema() []nn.FieldSpec {
	return []nn.FieldSpec{
		{Name: "time", Kind: nn.FieldContinuous, Size: 1},
		{Name: "size", Kind: nn.FieldContinuous, Size: 1},
		{Name: "ttl", Kind: nn.FieldContinuous, Size: 1},
	}
}

func (c *packetCodec) encode(t *trace.TaggedPacketFlow) dgan.Sample {
	s := dgan.Sample{Meta: c.encodeMeta(t.Flow.Tuple, t.Tags)}
	for i, p := range t.Flow.Packets {
		if i >= c.cfg.MaxLen {
			break
		}
		s.Features = append(s.Features, []float64{
			c.timeNorm.Transform(float64(p.Time)),
			c.sizeNorm.Transform(float64(p.Size)),
			float64(p.TTL) / 255,
		})
	}
	return s
}

// decode converts a generated sample back into packets. Post-processing
// (§4.2): sizes are clamped to the protocol minimum so derived headers are
// valid, and the checksum-bearing header can be produced via
// trace.IPv4Header.
func (c *packetCodec) decode(s dgan.Sample) *trace.PacketFlow {
	return c.decodeFlow(s, c.decodeMeta(s.Meta))
}

// decodeFlow is decode with the five-tuple already resolved by the batched
// decodeTuples pass.
func (c *packetCodec) decodeFlow(s dgan.Sample, ft trace.FiveTuple) *trace.PacketFlow {
	f := &trace.PacketFlow{Tuple: ft}
	for _, feat := range s.Features {
		size := int(math.Round(c.sizeNorm.Inverse(feat[1])))
		if min := trace.MinPacketSize(ft.Proto); size < min {
			size = min
		}
		if size > trace.MaxPacket {
			size = trace.MaxPacket
		}
		f.Packets = append(f.Packets, trace.Packet{
			Time:  int64(c.timeNorm.Inverse(feat[0])),
			Tuple: ft,
			Size:  size,
			TTL:   uint8(math.Round(feat[2] * 255)),
			Flags: 2,
		})
	}
	// Packets within a flow must be time ordered.
	for i := 1; i < len(f.Packets); i++ {
		if f.Packets[i].Time < f.Packets[i-1].Time {
			f.Packets[i].Time = f.Packets[i-1].Time
		}
	}
	return f
}

// PacketSynthesizer is a trained NetShare model for PCAP traces.
type PacketSynthesizer struct {
	synthesizer[*packetCodec, *dgan.Model]
}

// TrainPacketSynthesizer runs the full NetShare pipeline on a packet trace
// in this process; see TrainFlowSynthesizer. public supplies the IP2Vec
// corpus and optional DP pre-training data.
func TrainPacketSynthesizer(t *trace.PacketTrace, public *trace.PacketTrace, cfg Config) (*PacketSynthesizer, error) {
	plan, err := PlanPacketTraining(t, public, cfg)
	if err != nil {
		return nil, err
	}
	return plan.Train(Executor{})
}

// buildPacketTraining is the deterministic preparation behind
// PlanPacketTraining; see buildFlowTraining.
func buildPacketTraining(t *trace.PacketTrace, public *trace.PacketTrace, cfg Config) (*packetCodec, [][]dgan.Sample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Conditional {
		// Packet flows carry no per-record scenario label to condition on.
		return nil, nil, fmt.Errorf("core: Conditional training is flow-only; packet traces carry no scenario labels")
	}
	if len(t.Packets) == 0 {
		return nil, nil, fmt.Errorf("core: empty packet trace")
	}
	if public == nil || len(public.Packets) == 0 {
		return nil, nil, fmt.Errorf("core: a public packet trace is required for the port embedding")
	}
	embed, err := newPortEmbedding(public, cfg.EmbedDim, cfg.EmbedEpochs, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	codec := newPacketCodec(cfg, embed, t)
	if cfg.IPVectorEncoding {
		ipEmbed, err := newIPEmbedding(ip2vec.PacketSentences(t), cfg.EmbedDim, cfg.EmbedEpochs, cfg.Seed+3)
		if err != nil {
			return nil, nil, err
		}
		codec.ipEmbed = ipEmbed
	}

	flows := trace.SplitFlows(t)
	chunks := trace.ChunkPacketFlows(flows, cfg.Chunks)
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

func publicPacketSamples(codec *packetCodec, public *trace.PacketTrace, cfg Config) []dgan.Sample {
	flows := trace.SplitFlows(public)
	samples := make([]dgan.Sample, 0, len(flows))
	for _, f := range flows {
		tagged := &trace.TaggedPacketFlow{
			Flow: f,
			Tags: trace.FlowTags{StartsHere: true, Presence: make([]bool, cfg.Chunks)},
		}
		samples = append(samples, codec.encode(tagged))
	}
	return samples
}

// Generate produces approximately n synthetic packets assembled into a
// time-sorted trace. Chunk models generate concurrently (each on its own
// canonical RNG stream) and their flows are merged in chunk order before
// assembly, so the trace is byte-identical at every parallelism setting.
func (s *PacketSynthesizer) Generate(n int) *trace.PacketTrace {
	return s.generate(n, false)
}

// GenerateFresh returns what the first Generate of a freshly loaded copy
// of s returns, byte for byte, without touching the chunk models' RNG
// (see FlowSynthesizer.GenerateFresh). It is safe for concurrent calls.
func (s *PacketSynthesizer) GenerateFresh(n int) *trace.PacketTrace {
	return s.generate(n, true)
}

// generate runs the packet fan-out as one request on the float64 chunk
// models; fresh selects per-call copies of the generation streams.
func (s *PacketSynthesizer) generate(n int, fresh bool) *trace.PacketTrace {
	return s.codec.generate(s.cfg, s.stats.ChunkSamples, n, func(i int) (sampleFunc, int) {
		m, r := s.models[i], genRand(s.cfg, s.models[i], i, fresh)
		return func(st *dgan.Storage, n int) []dgan.Sample {
			batch, _ := m.GenerateFrom(r, st, n, -1)
			return batch
		}, m.Config.Batch
	})
}

// generate is the packet kind's one chunk fan-out, run by both generate
// modes: the count is split across the chunks as in flowCodec.generate,
// and the chunks' flows are assembled in chunk order into a time-sorted
// trace.
func (c *packetCodec) generate(cfg Config, shares []int, n int, sample chunkSampler) *trace.PacketTrace {
	defer telGeneratePhase.Start().Stop()
	chunks := fillChunks(cfg, shares, n, func(i, budget int) []*trace.PacketFlow {
		gen, lot := sample(i)
		return c.fillChunk(gen, lot, budget)
	})
	var flows []*trace.PacketFlow
	for _, chunk := range chunks {
		flows = append(flows, chunk...)
	}
	return trace.AssemblePackets(flows)
}

// fillChunk fills one chunk's packet budget from gen, the chunk
// model's generator, requesting whole generation lots of lot and trimming
// the overshoot. The samples and the tuple decode's scratch come from
// genPool; the decoded flows share nothing with them.
func (c *packetCodec) fillChunk(gen sampleFunc, lot, budget int) []*trace.PacketFlow {
	sc := genPool.Get().(*genScratch)
	defer genPool.Put(sc)
	var flows []*trace.PacketFlow
	for budget > 0 {
		batch := gen(&sc.samples, fullLots(budget, lot))
		tuples := sc.tuples.decode(c.embed, c.ipEmbed, batch)
		for bi, sample := range batch {
			f := c.decodeFlow(sample, tuples[bi])
			if len(f.Packets) > budget {
				f.Packets = f.Packets[:budget]
			}
			budget -= len(f.Packets)
			flows = append(flows, f)
			if budget == 0 {
				break
			}
		}
	}
	return flows
}

// Headers materializes valid IPv4 headers (with checksums) for every
// packet of a generated trace — the derived-field step of §4.2.
func Headers(t *trace.PacketTrace) [][]byte {
	out := make([][]byte, len(t.Packets))
	for i, p := range t.Packets {
		h := trace.IPv4Header{
			TotalLength: uint16(p.Size),
			ID:          uint16(i),
			Flags:       p.Flags,
			TTL:         p.TTL,
			Protocol:    p.Tuple.Proto,
			SrcIP:       p.Tuple.SrcIP,
			DstIP:       p.Tuple.DstIP,
		}
		out[i] = h.Marshal()
	}
	return out
}
