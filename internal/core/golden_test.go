package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dgan"
	"repro/internal/mat"
	"repro/internal/trace"
)

// goldenCase is one pinned training configuration: the SHA-256 of the
// generated trace's canonical CSV, the SHA-256 of every trained chunk
// model's weight bits, and the reported DP budget. The CSV digests and
// budgets were recorded from the previous training driver (the
// orchestrator-run chunk fan-out), so a match proves the Plan executor
// trains the same models bit for bit; the weight digests were recorded
// before the float64 activation and Adam leaves moved into internal/mat's
// kernel set, and they see a one-ulp change that the CSV digest absorbs.
type goldenCase struct {
	name    string
	packet  bool
	mod     func(*Config)
	csv     string
	weights string
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
		csv:     "d09e872d063979ac4d22377a712945483341a690d6b5e9b8ca7b2205fe893051",
		weights: "dba8abfbdf753465cd42ab532b5639f314e28570486e773a9ea2cbc88af71e84"},
	{name: "flow-m3-serial",
		csv:     "2a390a3a8bc0a81b2721fc7d8838c5b4ab202a27bcea1dc505468889c6ec1dd5",
		weights: "013661c5d223798da2693916469a14ee41f7269d7dc4c9c270b3f76ee26040c7"},
	{name: "flow-m3-parallel", mod: func(c *Config) { c.Parallel = true },
		csv:     "2a390a3a8bc0a81b2721fc7d8838c5b4ab202a27bcea1dc505468889c6ec1dd5",
		weights: "013661c5d223798da2693916469a14ee41f7269d7dc4c9c270b3f76ee26040c7"},
	{name: "packet-m3", packet: true,
		csv:     "2483164c8d6e5024425bf1387c278796bf7d5f41adb64c89674f62197a7f6faf",
		weights: "9f787946cd49556fb2ffbcdc718887749b3306883ad4bb9442302fd231bd33c3"},
	{name: "flow-conditional", mod: func(c *Config) { c.Chunks, c.Conditional = 2, true },
		csv:     "e91219b500b48f69abf3c9ceac92a347ae51232e31b39e5d9b8f61f0bf8440b0",
		weights: "4e8cf07bfc76942baffb3162ca7c8a56e978a99a625efed22fdd11ef08bf2e11"},
	{name: "dp-naive", mod: dpGolden(false),
		csv:     "53ef95e87e0e8f1c09251cd4ac3dc864ba87d25841a5ff0e256d537a87332ba9",
		weights: "87a9dea3708ce7e0f69e0a4353aa03f9a1a4d9edddda805af20f8880cafb2a76", epsilon: 7.753902197778368},
	{name: "dp-pretrained", mod: dpGolden(true),
		csv:     "933aad32e2a2a59574c709bc383487c76d5a0391cf60c514b9f6a054cb817141",
		weights: "db85409cc8e150e08b86554ea34aa4e255e2a84d182855a56a1d182d718299cd", epsilon: 7.753902197778368},
	{name: "ip-vector", mod: func(c *Config) { c.Chunks, c.IPVectorEncoding = 2, true },
		csv:     "01bb9b0e5e96ae00285f0017e82be2bf2b5408766e44300aee410be42dc680ba",
		weights: "fa216cf623c6a8799bcd12b2f2f943955fc1fe47fa65109d9e559b800d38346e"},
}

// goldenRun trains case gc and returns its trace digest and epsilon.
func goldenRun(t *testing.T, gc goldenCase) (string, float64) {
	t.Helper()
	csv, eps, _ := goldenTrain(t, gc)
	sum := sha256.Sum256(csv)
	return hex.EncodeToString(sum[:]), eps
}

// goldenTrain trains case gc and returns its generated trace's CSV bytes,
// its epsilon and its trained chunk models.
func goldenTrain(t *testing.T, gc goldenCase) ([]byte, float64, []*dgan.Model) {
	t.Helper()
	public := datasets.CAIDAChicago(400, 52)
	var buf bytes.Buffer
	if gc.packet {
		syn, err := TrainPacketSynthesizer(datasets.CAIDA(200, 53), public, gc.config())
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WritePacketCSV(&buf, syn.Generate(200)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), syn.Stats().Epsilon, syn.models
	}
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
	return buf.Bytes(), syn.Stats().Epsilon, syn.models
}

// weightsDigest is the SHA-256 of the bits of every weight of models, in
// chunk order and each model's parameter order.
func weightsDigest(models []*dgan.Model) string {
	h := sha256.New()
	var b []byte
	for _, m := range models {
		for _, p := range m.Params() {
			for _, v := range p.W.Data {
				b = binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(v))
				h.Write(b)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
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

// TestTrainingWeightsGolden pins the weight bits of every trained chunk
// model of every training mode, on every kernel set. Generation runs
// after training and reads the weights only, so the digest is taken after
// it, from the same run.
func TestTrainingWeightsGolden(t *testing.T) {
	mat.ForEachKernelSet(func(set string) {
		for _, gc := range goldenCases {
			t.Run(set+"/"+gc.name, func(t *testing.T) {
				_, _, models := goldenTrain(t, gc)
				got := weightsDigest(models)
				t.Logf("%s: weights=%s", gc.name, got)
				if got != gc.weights {
					t.Errorf("weights digest %s, want %s", got, gc.weights)
				}
			})
		}
	})
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
