package core

import (
	"reflect"
	"testing"

	"repro/internal/datasets"
)

// planConfig is smaller than testConfig: the plan tests train every
// chunk twice (standalone and via the plan's task methods).
func planConfig() Config {
	cfg := DefaultConfig()
	cfg.Chunks = 3
	cfg.MaxLen = 3
	cfg.SeedSteps = 60
	cfg.FineTuneSteps = 20
	cfg.EmbedEpochs = 2
	cfg.Hidden = 24
	return cfg
}

// TestFlowPlanMatchesStandalone is the determinism contract behind the
// cluster queue: executing a plan's chunk tasks separately — seed
// encoded to bytes, each fine-tune warm-started from those bytes —
// then assembling must generate the same trace as a single-process
// TrainFlowSynthesizer run, bitwise.
func TestFlowPlanMatchesStandalone(t *testing.T) {
	real := datasets.UGR16(200, 1)
	public := datasets.CAIDAChicago(800, 2)
	cfg := planConfig()

	gold, err := TrainFlowSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	goldGen := gold.Generate(150)

	plan, err := PlanFlowTraining(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chunks() != cfg.Chunks {
		t.Fatalf("plan has %d chunks, want %d", plan.Chunks(), cfg.Chunks)
	}
	seed, err := plan.TrainSeedChunk()
	if err != nil {
		t.Fatal(err)
	}
	encoded := [][]byte{seed}
	for idx := 1; idx < plan.Chunks(); idx++ {
		m, err := plan.FineTuneChunk(idx, seed)
		if err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, m)
	}
	syn, err := plan.Assemble(encoded)
	if err != nil {
		t.Fatal(err)
	}
	gen := syn.Generate(150)
	if !reflect.DeepEqual(goldGen.Records, gen.Records) {
		t.Fatal("plan-assembled synthesizer diverged from standalone training")
	}
	if got, want := syn.Stats().ChunkSamples, gold.Stats().ChunkSamples; !reflect.DeepEqual(got, want) {
		t.Fatalf("chunk samples %v, want %v", got, want)
	}
}

func TestPacketPlanMatchesStandalone(t *testing.T) {
	real := datasets.CAIDA(300, 3)
	public := datasets.CAIDAChicago(800, 4)
	cfg := planConfig()
	cfg.Chunks = 2

	gold, err := TrainPacketSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	goldGen := gold.Generate(120)

	plan, err := PlanPacketTraining(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := plan.TrainSeedChunk()
	if err != nil {
		t.Fatal(err)
	}
	fine, err := plan.FineTuneChunk(1, seed)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := plan.Assemble([][]byte{seed, fine})
	if err != nil {
		t.Fatal(err)
	}
	if gen := syn.Generate(120); !reflect.DeepEqual(goldGen.Packets, gen.Packets) {
		t.Fatal("plan-assembled synthesizer diverged from standalone training")
	}
}

// TestPlanRejectsBadChunkInputs: the task methods validate their chunk
// index and payload count. (Which configurations may be distributed is
// cluster.JobSpec.Validate's decision, not the plan's.)
func TestPlanRejectsBadChunkInputs(t *testing.T) {
	real := datasets.UGR16(100, 1)
	public := datasets.CAIDAChicago(500, 2)

	plan, err := PlanFlowTraining(real, public, planConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.FineTuneChunk(0, nil); err == nil {
		t.Fatal("fine-tuning chunk 0 must be rejected")
	}
	if _, err := plan.Assemble(nil); err == nil {
		t.Fatal("assembling with missing chunks must be rejected")
	}
}
