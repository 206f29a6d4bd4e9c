package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/dgan"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// A training plan is NetShare's one training recipe (Insight 3),
// decomposed into independently executable chunk tasks. The plan holds
// the deterministic preparation — fitted embeddings, codec, per-chunk
// encoded samples — and each task method is a pure function of the
// plan plus its inputs:
//
//	TrainSeedChunk()            → encoded seed model (chunk 0)
//	FineTuneChunk(i, seedBytes) → encoded chunk-i model
//	Assemble(allChunkBytes)     → the synthesizer
//
// Two executors run these tasks: the in-process Executor (exec.go),
// which TrainFlowSynthesizer and TrainPacketSynthesizer use, and the
// internal/cluster queue, whose workers run one task per lease.
//
// Determinism contract: a plan built from the same (trace, public,
// cfg) on any machine produces bitwise-identical chunk payloads, and
// Assemble applies the canonical generation reseed, so a local run, a
// resumed run, a distributed run, and a crash-recovered distributed run
// all generate byte-identical traces. This is what makes the cluster
// queue's at-least-once task semantics safe: two workers that both
// train the same chunk upload the same bytes.

// chunkPlan is the kind-independent core of a plan.
type chunkPlan struct {
	cfg          Config
	ganCfg       dgan.Config
	chunkSamples [][]dgan.Sample
	// public holds the public pretraining samples of a DP run with
	// Pretrain set (Insight 4); nil otherwise.
	public []dgan.Sample
}

// Chunks returns the number of chunk tasks (seed included).
func (p *chunkPlan) Chunks() int { return len(p.chunkSamples) }

// ChunkSampleCounts returns how many flow samples each chunk holds.
func (p *chunkPlan) ChunkSampleCounts() []int {
	out := make([]int, len(p.chunkSamples))
	for i, s := range p.chunkSamples {
		out[i] = len(s)
	}
	return out
}

// chunkLoss holds a chunk's final training losses, for Stats.
type chunkLoss struct{ critic, gen float64 }

// stepHook records chunk idx's per-step loss and gradient-norm curves in
// its telemetry series and keeps the latest losses in last. Recording is
// observational only: it cannot perturb training.
func stepHook(idx int, last *chunkLoss) dgan.TrainHook {
	critic, gen, grad, _ := chunkSeries(idx)
	return func(step int, ts dgan.Stats) error {
		critic.Record(int64(step), ts.CriticLoss)
		gen.Record(int64(step), ts.GenLoss)
		grad.Record(int64(step), ts.GradNorm)
		last.critic, last.gen = ts.CriticLoss, ts.GenLoss
		return nil
	}
}

// TrainSeedChunk trains the chunk-0 seed model and returns its encoded
// weights.
func (p *chunkPlan) TrainSeedChunk() ([]byte, error) {
	m, err := p.trainSeed(new(chunkLoss))
	if err != nil {
		return nil, err
	}
	return m.Encode()
}

func (p *chunkPlan) trainSeed(last *chunkLoss) (*dgan.Model, error) {
	seedCfg := p.ganCfg
	seedCfg.Seed = p.cfg.Seed
	seed, err := dgan.New(seedCfg)
	if err != nil {
		return nil, err
	}
	if p.cfg.DP == nil {
		_, err = seed.TrainWithHook(p.chunkSamples[0], p.cfg.SeedSteps, stepHook(0, last))
	} else {
		err = p.trainSeedDP(seed, stepHook(0, last))
	}
	if err != nil {
		return nil, err
	}
	return seed, nil
}

// trainSeedDP is Insight 4's seed recipe: optional non-private
// pretraining on the public samples, then DP-SGD on the private seed
// chunk with noise drawn from the reserved dpNoiseStream. The wrapped
// hook charts the cumulative privacy spend while telemetry is enabled.
func (p *chunkPlan) trainSeedDP(seed *dgan.Model, hook dgan.TrainHook) error {
	if p.cfg.DP.Pretrain {
		if len(p.public) == 0 {
			return fmt.Errorf("core: DP pretraining requires public samples")
		}
		if _, err := seed.Train(p.public, p.cfg.DP.PretrainSteps); err != nil {
			return err
		}
	}
	dp, err := privacy.NewDPSGD(p.dpConfig(), rng.New(rng.Derive(p.cfg.Seed, dpNoiseStream)))
	if err != nil {
		return err
	}
	_, _, _, epsSeries := chunkSeries(0)
	_, err = seed.TrainDPWithHook(p.chunkSamples[0], p.cfg.SeedSteps, dp, func(step int, ts dgan.Stats) error {
		if telemetry.Default.Enabled() {
			e := dp.Epsilon()
			epsSeries.Record(int64(step), e)
			telEpsilon.Set(e)
		}
		return hook(step, ts)
	})
	return err
}

// dpConfig is the DP-SGD configuration of the seed task. Validate
// enforces Chunks=1 under DP, so chunk 0 is the whole private dataset.
func (p *chunkPlan) dpConfig() privacy.DPSGDConfig {
	return privacy.DPSGDConfig{
		ClipNorm:        p.cfg.DP.ClipNorm,
		NoiseMultiplier: p.cfg.DP.NoiseMultiplier,
		SampleRate:      dpSampleRate(p.ganCfg.Batch, len(p.chunkSamples[0])),
		Delta:           p.cfg.DP.Delta,
	}
}

// epsilon is the privacy budget the seed task spends: the accountant's
// value after cfg.DPSteps() compositions at the plan's sample rate (0
// without DP). It depends on the plan alone, so a run that restores its
// seed from a checkpoint reports what the training run spent.
func (p *chunkPlan) epsilon() float64 {
	if p.cfg.DP == nil {
		return 0
	}
	c := p.dpConfig()
	return privacy.ComputeEpsilon(c.NoiseMultiplier, c.SampleRate, p.cfg.DPSteps(), c.Delta)
}

// FineTuneChunk warm-starts chunk idx from the encoded seed weights and
// fine-tunes it on the chunk's samples. Warmstart restores weights only
// (optimizer state and RNG restart fresh), so the result depends only on
// the seed weights, the chunk's samples and its RNG stream: fine-tuning
// from decoded seed bytes equals fine-tuning from the in-memory seed.
func (p *chunkPlan) FineTuneChunk(idx int, seedBytes []byte) ([]byte, error) {
	if idx <= 0 || idx >= len(p.chunkSamples) {
		return nil, fmt.Errorf("core: fine-tune chunk %d out of range [1,%d)", idx, len(p.chunkSamples))
	}
	seed, err := dgan.DecodeModel(seedBytes)
	if err != nil {
		return nil, fmt.Errorf("core: decode seed model: %w", err)
	}
	m, err := p.fineTune(idx, seed, new(chunkLoss))
	if err != nil {
		return nil, err
	}
	return m.Encode()
}

// fineTune trains chunk idx warm-started from seed, which it only reads,
// so concurrent fine-tunes may share one seed model.
func (p *chunkPlan) fineTune(idx int, seed *dgan.Model, last *chunkLoss) (*dgan.Model, error) {
	mCfg := p.ganCfg
	// Each chunk trains on its own decorrelated RNG stream, which depends
	// only on the base seed and chunk index, so the chunks' execution
	// order and placement cannot change the noise they draw.
	mCfg.Seed = rng.Derive(p.cfg.Seed, int64(idx))
	m, err := dgan.New(mCfg)
	if err != nil {
		return nil, err
	}
	if err := m.Warmstart(seed); err != nil {
		return nil, err
	}
	if len(p.chunkSamples[idx]) > 0 && p.cfg.FineTuneSteps > 0 {
		if _, err := m.TrainWithHook(p.chunkSamples[idx], p.cfg.FineTuneSteps, stepHook(idx, last)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// assemble decodes every chunk payload into the synthesizer's models;
// see finish.
func (p *chunkPlan) assemble(encoded [][]byte) ([]*dgan.Model, Stats, error) {
	if len(encoded) != len(p.chunkSamples) {
		return nil, Stats{}, fmt.Errorf("core: assemble got %d chunk payloads, want %d", len(encoded), len(p.chunkSamples))
	}
	models := make([]*dgan.Model, len(encoded))
	for i, data := range encoded {
		m, err := dgan.DecodeModel(data)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("core: decode chunk %d model: %w", i, err)
		}
		models[i] = m
	}
	p.finish(models)
	// Stats carries only what generation needs; the cluster workers that
	// trained the chunks keep their own timings.
	return models, Stats{ChunkSamples: p.ChunkSampleCounts()}, nil
}

// finish readies trained or decoded chunk models for generation with the
// canonical post-training reseed: whichever executor trained a chunk, and
// whether its model was trained in this process or decoded, generation
// draws from the same derived stream.
func (p *chunkPlan) finish(models []*dgan.Model) {
	for i, m := range models {
		m.Reseed(genSeed(p.cfg.Seed, genStream, i))
		m.SetParallelism(p.cfg.Parallelism)
	}
}

// digest identifies everything a chunk payload depends on: the
// training configuration, the base seed, and every encoded sample (the
// chunks' and the public pretraining set). A checkpointed chunk is
// reusable exactly when its recorded digest equals the current plan's.
func (p *chunkPlan) digest() string {
	h := sha256.New()
	writeUint64(h, p.cfg.hash())
	writeUint64(h, uint64(p.cfg.Seed))
	for _, set := range p.chunkSamples {
		writeSamples(h, set)
	}
	writeSamples(h, p.public)
	return hex.EncodeToString(h.Sum(nil))
}

func writeSamples(h hash.Hash, set []dgan.Sample) {
	writeUint64(h, uint64(len(set)))
	for _, s := range set {
		writeUint64(h, uint64(s.Label))
		writeFloats(h, s.Meta)
		writeUint64(h, uint64(len(s.Features)))
		for _, f := range s.Features {
			writeFloats(h, f)
		}
	}
}

func writeUint64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func writeFloats(h hash.Hash, xs []float64) {
	writeUint64(h, uint64(len(xs)))
	for _, x := range xs {
		writeUint64(h, math.Float64bits(x))
	}
}

// FlowPlan is a training plan for NetFlow traces.
type FlowPlan struct {
	chunkPlan
	codec *flowCodec
}

// PlanFlowTraining prepares a flow-training plan: embeddings, codec,
// and chunked sample encoding, without training anything yet.
func PlanFlowTraining(t *trace.FlowTrace, public *trace.PacketTrace, cfg Config) (*FlowPlan, error) {
	codec, chunkSamples, err := buildFlowTraining(t, public, cfg)
	if err != nil {
		return nil, err
	}
	p := &FlowPlan{codec: codec, chunkPlan: chunkPlan{
		cfg:          cfg,
		ganCfg:       ganConfig(cfg, codec.metaSchema(), codec.featureSchema()),
		chunkSamples: chunkSamples,
	}}
	if cfg.DP != nil && cfg.DP.Pretrain {
		// The public packet trace's flows, re-expressed as NetFlow records.
		p.public = publicFlowSamples(codec, public, cfg)
	}
	return p, nil
}

// Assemble builds the synthesizer from every chunk's encoded model, in
// chunk order.
func (p *FlowPlan) Assemble(encoded [][]byte) (*FlowSynthesizer, error) {
	models, st, err := p.assemble(encoded)
	if err != nil {
		return nil, err
	}
	return &FlowSynthesizer{synthesizer[*flowCodec, *dgan.Model]{cfg: p.cfg, codec: p.codec, models: models, stats: st}}, nil
}

// Train runs every chunk task in this process under ex and assembles
// the synthesizer, with Stats carrying the run's timings.
func (p *FlowPlan) Train(ex Executor) (*FlowSynthesizer, error) {
	models, st, err := ex.run(&p.chunkPlan)
	if err != nil {
		return nil, err
	}
	return &FlowSynthesizer{synthesizer[*flowCodec, *dgan.Model]{cfg: p.cfg, codec: p.codec, models: models, stats: st}}, nil
}

// PacketPlan is a training plan for PCAP traces.
type PacketPlan struct {
	chunkPlan
	codec *packetCodec
}

// PlanPacketTraining prepares a packet-training plan; see
// PlanFlowTraining.
func PlanPacketTraining(t *trace.PacketTrace, public *trace.PacketTrace, cfg Config) (*PacketPlan, error) {
	codec, chunkSamples, err := buildPacketTraining(t, public, cfg)
	if err != nil {
		return nil, err
	}
	p := &PacketPlan{codec: codec, chunkPlan: chunkPlan{
		cfg:          cfg,
		ganCfg:       ganConfig(cfg, codec.metaSchema(), codec.featureSchema()),
		chunkSamples: chunkSamples,
	}}
	if cfg.DP != nil && cfg.DP.Pretrain {
		p.public = publicPacketSamples(codec, public, cfg)
	}
	return p, nil
}

// Assemble builds the synthesizer from every chunk's encoded model, in
// chunk order.
func (p *PacketPlan) Assemble(encoded [][]byte) (*PacketSynthesizer, error) {
	models, st, err := p.assemble(encoded)
	if err != nil {
		return nil, err
	}
	return &PacketSynthesizer{synthesizer[*packetCodec, *dgan.Model]{cfg: p.cfg, codec: p.codec, models: models, stats: st}}, nil
}

// Train runs every chunk task in this process under ex; see
// FlowPlan.Train.
func (p *PacketPlan) Train(ex Executor) (*PacketSynthesizer, error) {
	models, st, err := ex.run(&p.chunkPlan)
	if err != nil {
		return nil, err
	}
	return &PacketSynthesizer{synthesizer[*packetCodec, *dgan.Model]{cfg: p.cfg, codec: p.codec, models: models, stats: st}}, nil
}
