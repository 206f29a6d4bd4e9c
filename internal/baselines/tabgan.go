package baselines

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/mat"
	"repro/internal/nn"
)

// tabularGAN is the shared WGAN-GP engine behind the tabular baselines:
// an MLP generator with a schema-driven output head and an MLP critic over
// independent rows. Unlike NetShare, it has no notion of flows or time
// series — each record is one row, which is exactly the formulation the
// paper's Challenge 1 attributes the missing cross-record structure to.
type tabularGAN struct {
	schema []nn.FieldSpec
	cond   int // width of an optional conditioning prefix (0 = none)

	gen    *nn.MLP
	head   *nn.OutputHead
	critic *nn.MLP

	optG, optD *nn.Adam
	rng        *rand.Rand

	noiseDim int
	batch    int

	// Training workspace, reused by every step: real and fake critic
	// inputs, the bare conditioning block, generator noise, the score
	// gradient and the generator-output gradient.
	real, fake, condM, z, grad, dOut mat.Matrix
}

// tabularConfig parameterizes the engine.
type tabularConfig struct {
	Schema   []nn.FieldSpec
	CondDim  int // conditioning width prepended to generator input and critic input
	NoiseDim int
	Hidden   int
	Batch    int
	LR       float64
	Seed     int64
}

func defaultTabularConfig(schema []nn.FieldSpec) tabularConfig {
	return tabularConfig{
		Schema:   schema,
		NoiseDim: 8,
		Hidden:   48,
		Batch:    32,
		LR:       1e-3,
		Seed:     1,
	}
}

func newTabularGAN(cfg tabularConfig) (*tabularGAN, error) {
	if len(cfg.Schema) == 0 {
		return nil, fmt.Errorf("baselines: empty schema")
	}
	if cfg.NoiseDim <= 0 || cfg.Hidden <= 0 || cfg.Batch <= 0 || cfg.LR <= 0 || cfg.CondDim < 0 {
		return nil, fmt.Errorf("baselines: invalid tabular config")
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	w := nn.Width(cfg.Schema)
	g := &tabularGAN{
		schema:   cfg.Schema,
		cond:     cfg.CondDim,
		rng:      r,
		noiseDim: cfg.NoiseDim,
		batch:    cfg.Batch,
	}
	g.gen = nn.NewMLP("g", []int{cfg.NoiseDim + cfg.CondDim, cfg.Hidden, cfg.Hidden, w}, nn.ReLU, nn.Identity, r)
	g.head = nn.NewOutputHead(cfg.Schema)
	g.critic = nn.NewMLP("d", []int{w + cfg.CondDim, cfg.Hidden, cfg.Hidden, 1}, nn.LeakyReLU, nn.Identity, r)
	g.optG = nn.NewAdam(cfg.LR)
	g.optD = nn.NewAdam(cfg.LR)
	return g, nil
}

// rows must each have width Width(schema); conds (may be nil when CondDim
// is 0) must each have width CondDim and align with rows.
func (g *tabularGAN) train(rows [][]float64, conds [][]float64, steps int) error {
	w := nn.Width(g.schema)
	if len(rows) == 0 {
		return fmt.Errorf("baselines: no training rows")
	}
	for i, r := range rows {
		if len(r) != w {
			return fmt.Errorf("baselines: row %d width %d, want %d", i, len(r), w)
		}
	}
	if g.cond > 0 && len(conds) != len(rows) {
		return fmt.Errorf("baselines: conditioning rows missing")
	}

	const criticIters = 2
	for s := 0; s < steps; s++ {
		for c := 0; c < criticIters; c++ {
			g.criticStep(rows, conds)
		}
		g.generatorStep(rows, conds)
	}
	return nil
}

// sampleBatch assembles a real minibatch (with conditioning prefix) as
// critic input, plus the bare conditioning block for the generator.
func (g *tabularGAN) sampleBatch(rows, conds [][]float64) (*mat.Matrix, *mat.Matrix) {
	w := nn.Width(g.schema)
	real := g.real.Reshape(g.batch, w+g.cond)
	condM := g.condM.Reshape(g.batch, g.cond)
	for i := 0; i < g.batch; i++ {
		idx := g.rng.Intn(len(rows))
		row := real.Row(i)
		if g.cond > 0 {
			copy(row[:g.cond], conds[idx])
			copy(condM.Row(i), conds[idx])
		}
		copy(row[g.cond:], rows[idx])
	}
	return real, condM
}

// noise fills the generator input: N(0,1) noise ++ each row of the
// conditioning block condM.
func (g *tabularGAN) noise(condM *mat.Matrix) *mat.Matrix {
	z := g.z.Reshape(condM.Rows, g.noiseDim+g.cond)
	for i := 0; i < condM.Rows; i++ {
		row := z.Row(i)
		for j := 0; j < g.noiseDim; j++ {
			row[j] = g.rng.NormFloat64()
		}
		copy(row[g.noiseDim:], condM.Row(i))
	}
	return z
}

// fakeBatch generates a batch of activated fake rows with the given
// conditioning, returning critic input (cond ++ row).
func (g *tabularGAN) fakeBatch(condM *mat.Matrix) *mat.Matrix {
	out := g.head.Forward(g.gen.Forward(g.noise(condM)))
	fake := g.fake.Reshape(g.batch, out.Cols+g.cond)
	for i := 0; i < g.batch; i++ {
		row := fake.Row(i)
		if g.cond > 0 {
			copy(row[:g.cond], condM.Row(i))
		}
		copy(row[g.cond:], out.Row(i))
	}
	return fake
}

// criticStep runs one WGAN-GP critic update. Each batch's scores come from
// the forward its backward follows.
func (g *tabularGAN) criticStep(rows, conds [][]float64) {
	real, condM := g.sampleBatch(rows, conds)
	fake := g.fakeBatch(condM)

	g.critic.Backward(nn.ScoreGrad(&g.grad, g.critic.Forward(real), -1))
	g.critic.Backward(nn.ScoreGrad(&g.grad, g.critic.Forward(fake), 1))
	nn.GradientPenalty(g.critic, real, fake, 10, g.rng.Float64)
	g.optD.Step(g.critic)
}

// generatorStep runs one generator update through the critic, whose
// backward is input-only: its parameter gradients are left as the last
// critic update zeroed them.
func (g *tabularGAN) generatorStep(rows, conds [][]float64) {
	_, condM := g.sampleBatch(rows, conds)
	fake := g.fakeBatch(condM)

	dIn := g.critic.BackwardInput(nn.ScoreGrad(&g.grad, g.critic.Forward(fake), -1))

	// Strip the conditioning columns; they carry no generator gradient.
	dOut := g.dOut.Reshape(g.batch, nn.Width(g.schema))
	for i := 0; i < g.batch; i++ {
		copy(dOut.Row(i), dIn.Row(i)[g.cond:])
	}
	g.gen.Backward(g.head.Backward(dOut))
	g.optG.Step(g.gen)
}

// generate produces n activated+sampled rows with the given per-row
// conditioning (nil when unconditioned).
func (g *tabularGAN) generate(n int, condFor func(i int) []float64) [][]float64 {
	out := make([][]float64, 0, n)
	for len(out) < n {
		batch := g.batch
		if rem := n - len(out); rem < batch {
			batch = rem
		}
		z := mat.New(batch, g.noiseDim+g.cond)
		for i := 0; i < batch; i++ {
			row := z.Row(i)
			for j := 0; j < g.noiseDim; j++ {
				row[j] = g.rng.NormFloat64()
			}
			if g.cond > 0 && condFor != nil {
				copy(row[g.noiseDim:], condFor(len(out)+i))
			}
		}
		raw := g.gen.Forward(z)
		act := g.head.Forward(raw)
		for i := 0; i < batch; i++ {
			row := make([]float64, act.Cols)
			nn.SampleRow(row, g.schema, act.Row(i), g.rng.Float64)
			out = append(out, row)
		}
	}
	return out
}

// timedTrain wraps train with a wall-clock measurement.
func (g *tabularGAN) timedTrain(rows, conds [][]float64, steps int) (time.Duration, error) {
	t0 := time.Now()
	err := g.train(rows, conds, steps)
	return time.Since(t0), err
}
