package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/datasets"
	"repro/internal/trace"
)

// resumeConfig is a fast configuration for the end-to-end fault-tolerance
// tests: real training, but few steps.
func resumeConfig() Config {
	cfg := DefaultConfig()
	cfg.Chunks = 3
	cfg.MaxLen = 4
	cfg.SeedSteps = 30
	cfg.FineTuneSteps = 10
	cfg.EmbedEpochs = 1
	cfg.Hidden = 16
	return cfg
}

// flowCSV renders a synthesizer's generated trace to its canonical CSV
// bytes — the unit of comparison for bitwise-determinism claims.
func flowCSV(t *testing.T, syn *FlowSynthesizer, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteFlowCSV(&buf, syn.Generate(n)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// trainFlow plans and trains a flow synthesizer under ex.
func trainFlow(real *trace.FlowTrace, public *trace.PacketTrace, cfg Config, ex Executor) (*FlowSynthesizer, error) {
	plan, err := PlanFlowTraining(real, public, cfg)
	if err != nil {
		return nil, err
	}
	return plan.Train(ex)
}

// errCrash is the simulated process death the crash seam injects.
var errCrash = errors.New("simulated crash")

// crashAfter returns an afterChunk seam that kills the run once chunk idx
// is durable.
func crashAfter(idx int) func(int) error {
	return func(i int) error {
		if i == idx {
			return errCrash
		}
		return nil
	}
}

// TestResumeBitwiseDeterminism is the golden end-to-end test: a training
// run killed after the seed phase and resumed from its checkpoint
// directory must emit byte-identical synthetic traces to an uninterrupted
// run — serial or parallel.
func TestResumeBitwiseDeterminism(t *testing.T) {
	real := datasets.UGR16(200, 31)
	public := datasets.CAIDAChicago(600, 32)
	cfg := resumeConfig()

	ref, err := TrainFlowSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refCSV := flowCSV(t, ref, 300)

	parCfg := cfg
	parCfg.Parallel = true
	par, err := TrainFlowSynthesizer(real, public, parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flowCSV(t, par, 300), refCSV) {
		t.Fatal("parallel trace differs from serial")
	}

	// Kill the run as fine-tuning starts: the seed checkpoint is on disk,
	// chunks 1..2 are not.
	dir := t.TempDir()
	_, err = trainFlow(real, public, cfg, Executor{Dir: dir, afterChunk: crashAfter(0)})
	if !errors.Is(err, errCrash) {
		t.Fatalf("crash run: err = %v, want simulated crash", err)
	}

	// Reboot and resume: the seed is restored, the rest train fresh.
	resumed, err := trainFlow(real, public, cfg, Executor{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	st := resumed.Stats()
	if len(st.ChunkResumed) != cfg.Chunks || !st.ChunkResumed[0] || st.ChunkResumed[1] {
		t.Fatalf("resumed flags = %v, want seed-only resume", st.ChunkResumed)
	}
	if !bytes.Equal(flowCSV(t, resumed, 300), refCSV) {
		t.Fatal("resumed trace differs from uninterrupted run")
	}
}

// TestSaveLoadMatchesResumedGeneration: a synthesizer saved and reloaded
// generates the same first trace as the freshly trained one — both sides
// sit on the canonical generation streams.
func TestSaveLoadMatchesResumedGeneration(t *testing.T) {
	real := datasets.UGR16(200, 37)
	public := datasets.CAIDAChicago(600, 38)
	cfg := resumeConfig()

	syn, err := TrainFlowSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := syn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlowSynthesizer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flowCSV(t, loaded, 300), flowCSV(t, syn, 300)) {
		t.Fatal("loaded synthesizer's first trace differs from the trained one's")
	}
}

// TestDPSampleRate pins the DP-SGD sampling probability: batch/n for the
// trained chunk, clamped to 1 when the batch covers the dataset. Validate
// enforces Chunks=1 under DP, so chunk 0 *is* the trained private
// dataset — the regression this guards is the rate silently being derived
// from a chunk that is not the one trained privately.
func TestDPSampleRate(t *testing.T) {
	cases := []struct {
		batch, n int
		want     float64
	}{
		{32, 100, 0.32},
		{32, 32, 1},
		{64, 10, 1}, // batch larger than dataset: sampling cannot exceed 1
		{1, 1000, 0.001},
	}
	for _, tc := range cases {
		if got := dpSampleRate(tc.batch, tc.n); got != tc.want {
			t.Fatalf("dpSampleRate(%d, %d) = %v, want %v", tc.batch, tc.n, got, tc.want)
		}
	}
}

// TestValidateRejectsDPMultiChunk: DP training over multiple chunks would
// fine-tune chunks 1..M-1 without privacy accounting and would break the
// chunk-0 sample-rate authority, so Validate rejects it.
func TestValidateRejectsDPMultiChunk(t *testing.T) {
	cfg := resumeConfig()
	cfg.DP = &DPConfig{NoiseMultiplier: 1.0, ClipNorm: 1.0, Delta: 1e-5}
	if err := cfg.Validate(); err == nil {
		t.Fatal("DP with Chunks=3 must be rejected")
	}
	cfg.Chunks = 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DP with Chunks=1 must validate: %v", err)
	}
}

// TestResumeRejectsChangedConfig: resuming a checkpoint directory with a
// different training configuration must fail loudly, not mix models.
func TestResumeRejectsChangedConfig(t *testing.T) {
	real := datasets.UGR16(200, 41)
	public := datasets.CAIDAChicago(600, 42)
	cfg := resumeConfig()

	dir := t.TempDir()
	if _, err := trainFlow(real, public, cfg, Executor{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	changed := cfg
	changed.FineTuneSteps++
	_, err := trainFlow(real, public, changed, Executor{Dir: dir, Resume: true})
	if err == nil {
		t.Fatal("resume with a changed config must fail")
	}
}
