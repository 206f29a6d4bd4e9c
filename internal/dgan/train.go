package dgan

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/privacy"
)

// Stats summarizes a training run.
type Stats struct {
	Steps      int
	CriticLoss float64 // last critic Wasserstein loss (pre-penalty)
	GenLoss    float64 // last generator loss
	GradNorm   float64 // generator gradient L2 norm at the last step
}

// TrainHook observes training progress at generator-step granularity:
// it is invoked after every completed generator update with the 1-based
// step count and the running stats. A non-nil return aborts training with
// that error. internal/core records per-chunk loss curves through it.
type TrainHook func(step int, st Stats) error

// Train runs `steps` generator updates (each preceded by CriticIters critic
// updates) over the sample set. It returns an error for an empty sample
// set or malformed sample shapes.
func (m *Model) Train(samples []Sample, steps int) (Stats, error) {
	return m.TrainWithHook(samples, steps, nil)
}

// TrainWithHook is Train with a per-step progress hook (nil behaves like
// Train).
func (m *Model) TrainWithHook(samples []Sample, steps int, hook TrainHook) (Stats, error) {
	if err := m.checkSamples(samples); err != nil {
		return Stats{}, err
	}
	return m.trainLoop(samples, steps, nil, hook)
}

// TrainDPWithHook runs DP-SGD training: the critics (which observe
// private data) are updated with per-sample clipped, noised gradients
// accumulated through dp; the generator update is post-processing of the
// critic and needs no extra noise. Pre-train on public data with Train,
// then fine-tune with TrainDPWithHook (Insight 4). hook, when non-nil,
// sees every step.
func (m *Model) TrainDPWithHook(samples []Sample, steps int, dp *privacy.DPSGD, hook TrainHook) (Stats, error) {
	if err := m.checkSamples(samples); err != nil {
		return Stats{}, err
	}
	if dp == nil {
		return Stats{}, fmt.Errorf("dgan: DP training requires a DPSGD instance")
	}
	return m.trainLoop(samples, steps, dp, hook)
}

func (m *Model) trainLoop(samples []Sample, steps int, dp *privacy.DPSGD, hook TrainHook) (Stats, error) {
	var st Stats
	if m.condW > 0 {
		m.fitLabelWeights(samples)
	}
	for i := 0; i < steps; i++ {
		for c := 0; c < m.Config.CriticIters; c++ {
			st.CriticLoss = m.criticStep(samples, dp)
		}
		st.GenLoss, st.GradNorm = m.generatorStep()
		st.Steps++
		telSteps.Inc()
		if hook != nil {
			if err := hook(st.Steps, st); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

func (m *Model) checkSamples(samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("dgan: no training samples")
	}
	for i, s := range samples {
		if len(s.Meta) != m.metaW {
			return fmt.Errorf("dgan: sample %d metadata width %d, want %d", i, len(s.Meta), m.metaW)
		}
		if len(s.Features) == 0 || len(s.Features) > m.Config.MaxLen {
			return fmt.Errorf("dgan: sample %d has %d steps, want 1..%d", i, len(s.Features), m.Config.MaxLen)
		}
		for t, f := range s.Features {
			if len(f) != m.featW-1 {
				return fmt.Errorf("dgan: sample %d step %d width %d, want %d", i, t, len(f), m.featW-1)
			}
		}
		if m.condW > 0 && (s.Label < 0 || s.Label >= m.condW) {
			return fmt.Errorf("dgan: sample %d label %d, want 0..%d", i, s.Label, m.condW-1)
		}
	}
	return nil
}

// fitLabelWeights records the empirical scenario-label distribution of the
// training set; unconditional generation draws per-sample labels from it.
func (m *Model) fitLabelWeights(samples []Sample) {
	counts := make([]float64, m.condW)
	for _, s := range samples {
		counts[s.Label]++
	}
	total := float64(len(samples))
	for i := range counts {
		counts[i] /= total
	}
	m.labelWeights = counts
}

// trainBufs is the model's training workspace: every matrix the critic and
// generator steps build — real and fake critic inputs, noise, per-step GRU
// inputs, the split critic-input gradient and the score gradients. Like
// the nn modules' own buffers it is sized on first use and reused by every
// step after, so a model that only decodes or generates never grows it,
// and a warm training step allocates no matrix.
type trainBufs struct {
	real, fake         mat.Matrix // main-critic inputs
	realMeta, fakeMeta mat.Matrix // auxiliary-critic inputs
	z, zCond, cond     mat.Matrix // metadata noise, with label prefix; label one-hots
	xs                 []mat.Matrix
	xPtrs, feats       []*mat.Matrix
	dMeta, dMetaAux    mat.Matrix
	dFeats             []mat.Matrix
	dFeatPtrs, dRaws   []*mat.Matrix
	grad               mat.Matrix // score gradient (nn.ScoreGrad)
}

// criticStep performs one WGAN-GP update of both critics and returns the
// main critic's Wasserstein loss. When dp is non-nil the data-dependent
// gradients are accumulated per sample through DP-SGD before the
// optimizer step.
func (m *Model) criticStep(samples []Sample, dp *privacy.DPSGD) float64 {
	batch := m.Config.Batch
	real := m.realBatch(samples, batch)
	meta, feats := m.forwardGenerator(batch)
	fake := m.flatten(meta, feats)
	realMeta, fakeMeta := m.metaSlice(real), m.condMeta(meta)

	if dp != nil {
		// DP path: per-sample gradients for the real-data terms, clipped
		// and noised; the fake-data and penalty terms are data independent
		// given the generator, so they are applied normally after Finalize.
		loss := m.dpCriticUpdate(m.critic, m.optD, real, fake, dp)
		m.dpCriticUpdate(m.auxCritic, m.optAux, realMeta, fakeMeta, dp)
		return loss
	}
	loss := m.wganCriticUpdate(m.critic, m.optD, real, fake)
	m.wganCriticUpdate(m.auxCritic, m.optAux, realMeta, fakeMeta)
	return loss
}

// wganCriticUpdate runs one WGAN-GP update of critic on a real and a fake
// batch and returns the Wasserstein loss mean(D(fake)) − mean(D(real)).
// Each batch's scores come from the forward its backward follows, so the
// loss costs no extra pass.
func (m *Model) wganCriticUpdate(critic *nn.MLP, opt *nn.Adam, real, fake *mat.Matrix) float64 {
	outR := critic.Forward(real)
	meanR := nn.MeanScore(outR)
	critic.Backward(nn.ScoreGrad(&m.tb.grad, outR, -1))
	outF := critic.Forward(fake)
	meanF := nn.MeanScore(outF)
	critic.Backward(nn.ScoreGrad(&m.tb.grad, outF, 1))
	nn.GradientPenalty(critic, real, fake, m.Config.GPWeight, m.rng.Float64)
	opt.Step(critic)
	return meanF - meanR
}

// dpCriticUpdate updates one critic under DP-SGD and returns the
// Wasserstein loss estimate. The per-sample real gradients are computed on
// per-worker critic replicas (Config.Parallelism lanes), clipped locally,
// and merged by a fixed-order tree reduction, so the update is bitwise
// identical at every parallelism level.
func (m *Model) dpCriticUpdate(critic *nn.MLP, opt *nn.Adam, real, fake *mat.Matrix, dp *privacy.DPSGD) float64 {
	batch := real.Rows
	// Per-sample real gradients → clip per sample → tree-reduce → accumulate.
	sum := m.accumulatePerSample(critic, real, dp.Config.ClipNorm)
	dp.AccumulateLot(critic, sum)
	dp.Finalize(critic, batch)
	// Fake term and gradient penalty are post-processing w.r.t. the private
	// data; add their gradients on top of the noised real-term gradient.
	// The critic maximizes D(real)−D(fake): the fake term is +mean. No step
	// below changes a weight before opt.Step, so these fake scores are the
	// loss's too.
	outF := critic.Forward(fake)
	meanF := nn.MeanScore(outF)
	critic.Backward(nn.ScoreGrad(&m.tb.grad, outF, 1))
	nn.GradientPenalty(critic, fake, fake, m.Config.GPWeight, m.rng.Float64)

	meanR := nn.MeanScore(critic.Forward(real))
	opt.Step(critic)
	return meanF - meanR
}

// generatorStep performs one generator update against both critics and
// returns the generator loss and the pre-update gradient L2 norm. The
// critics' backward passes are input-only: their parameter gradients are
// not this step's to change (every critic update ends by zeroing them).
func (m *Model) generatorStep() (float64, float64) {
	batch, tb := m.Config.Batch, &m.tb
	meta, feats := m.forwardGenerator(batch)
	fake := m.flatten(meta, feats)

	out := m.critic.Forward(fake)
	loss := -nn.MeanScore(out)
	dMeta, dFeats := m.unflatten(m.critic.BackwardInput(nn.ScoreGrad(&tb.grad, out, -1)))

	outAux := m.auxCritic.Forward(m.condMeta(meta))
	dMetaAux := m.auxCritic.BackwardInput(nn.ScoreGrad(&tb.grad, outAux, -1))
	if m.condW > 0 {
		// Drop the gradient on the conditioning prefix: it is an input.
		stripped := tb.dMetaAux.Reshape(dMetaAux.Rows, m.metaW)
		for i := 0; i < dMetaAux.Rows; i++ {
			copy(stripped.Row(i), dMetaAux.Row(i)[m.condW:])
		}
		dMetaAux = stripped
	}
	dMeta.Add(dMetaAux)

	m.backwardGenerator(dMeta, dFeats)
	gradNorm := nn.GradNorm(generatorModule{m})
	m.optG.Step(generatorModule{m})
	return loss, gradNorm
}

// Rand exposes the model's seeded source for callers that need coordinated
// sampling (e.g. post-processing draws).
func (m *Model) Rand() *rand.Rand { return m.rng }

// Reseed replaces the model's RNG with a fresh source. Training advances
// the RNG by a data-dependent number of draws, while a checkpoint-decoded
// model starts from Config.Seed — reseeding both onto the same canonical
// stream after training is what makes generation from a resumed run
// bitwise identical to an uninterrupted one (DESIGN.md §7).
func (m *Model) Reseed(seed int64) { m.rng = rand.New(rand.NewSource(seed)) }
