package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/datasets"
	"repro/internal/trace"
)

// goldenCase is one pinned training configuration: the SHA-256 of the
// generated trace's canonical CSV and the reported DP budget. The values
// were recorded from the previous training driver (the orchestrator-run
// chunk fan-out), so a match proves the Plan executor trains the same
// models bit for bit.
type goldenCase struct {
	name    string
	packet  bool
	mod     func(*Config)
	csv     string
	epsilon float64
}

func (gc goldenCase) config() Config {
	cfg := crashConfig()
	if gc.mod != nil {
		gc.mod(&cfg)
	}
	return cfg
}

func dpGolden(pretrain bool) func(*Config) {
	return func(c *Config) {
		c.Chunks = 1
		c.DP = &DPConfig{NoiseMultiplier: 1.1, ClipNorm: 1.0, Delta: 1e-5}
		if pretrain {
			c.DP.Pretrain, c.DP.PretrainSteps = true, 6
		}
	}
}

var goldenCases = []goldenCase{
	{name: "flow-m1", mod: func(c *Config) { c.Chunks = 1 },
		csv: "d09e872d063979ac4d22377a712945483341a690d6b5e9b8ca7b2205fe893051"},
	{name: "flow-m3-serial",
		csv: "2a390a3a8bc0a81b2721fc7d8838c5b4ab202a27bcea1dc505468889c6ec1dd5"},
	{name: "flow-m3-parallel", mod: func(c *Config) { c.Parallel = true },
		csv: "2a390a3a8bc0a81b2721fc7d8838c5b4ab202a27bcea1dc505468889c6ec1dd5"},
	{name: "packet-m3", packet: true,
		csv: "2483164c8d6e5024425bf1387c278796bf7d5f41adb64c89674f62197a7f6faf"},
	{name: "flow-conditional", mod: func(c *Config) { c.Chunks, c.Conditional = 2, true },
		csv: "e91219b500b48f69abf3c9ceac92a347ae51232e31b39e5d9b8f61f0bf8440b0"},
	{name: "dp-naive", mod: dpGolden(false),
		csv: "53ef95e87e0e8f1c09251cd4ac3dc864ba87d25841a5ff0e256d537a87332ba9", epsilon: 7.753902197778368},
	{name: "dp-pretrained", mod: dpGolden(true),
		csv: "933aad32e2a2a59574c709bc383487c76d5a0391cf60c514b9f6a054cb817141", epsilon: 7.753902197778368},
	{name: "ip-vector", mod: func(c *Config) { c.Chunks, c.IPVectorEncoding = 2, true },
		csv: "01bb9b0e5e96ae00285f0017e82be2bf2b5408766e44300aee410be42dc680ba"},
}

// goldenRun trains case gc and returns its trace digest and epsilon.
func goldenRun(t *testing.T, gc goldenCase) (string, float64) {
	t.Helper()
	public := datasets.CAIDAChicago(400, 52)
	var buf bytes.Buffer
	var eps float64
	if gc.packet {
		syn, err := TrainPacketSynthesizer(datasets.CAIDA(200, 53), public, gc.config())
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WritePacketCSV(&buf, syn.Generate(200)); err != nil {
			t.Fatal(err)
		}
		eps = syn.Stats().Epsilon
	} else {
		real := datasets.UGR16(150, 51)
		if gc.config().Conditional {
			real = labeledTrace(150, 51)
		}
		syn, err := TrainFlowSynthesizer(real, public, gc.config())
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteFlowCSV(&buf, syn.Generate(200)); err != nil {
			t.Fatal(err)
		}
		eps = syn.Stats().Epsilon
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), eps
}

// TestTrainingGolden pins every training mode's output to the digests the
// previous training driver produced.
func TestTrainingGolden(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			digest, eps := goldenRun(t, gc)
			t.Logf("%s: csv=%s epsilon=%v", gc.name, digest, eps)
			if digest != gc.csv {
				t.Errorf("trace digest %s, want %s", digest, gc.csv)
			}
			if eps != gc.epsilon {
				t.Errorf("epsilon %v, want %v", eps, gc.epsilon)
			}
		})
	}
}

// TestTrainedTraceIndependentOfParallelism trains the same flow model at
// Parallelism 1 and 2, with concurrent chunk fine-tunes and with DP-SGD
// sample lanes, and requires byte-identical generated CSVs.
func TestTrainedTraceIndependentOfParallelism(t *testing.T) {
	real := datasets.UGR16(150, 51)
	public := datasets.CAIDAChicago(400, 52)
	for name, mod := range map[string]func(*Config){
		"chunks": func(c *Config) { c.Parallel = true },
		"dp":     dpGolden(false),
	} {
		t.Run(name, func(t *testing.T) {
			var want []byte
			for _, p := range []int{1, 2} {
				cfg := crashConfig()
				mod(&cfg)
				cfg.Parallelism = p
				syn, err := TrainFlowSynthesizer(real, public, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := flowCSV(t, syn, 200)
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("Parallelism %d trace differs from Parallelism 1", p)
				}
			}
		})
	}
}
