package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/container"
	"repro/internal/datasets"
	"repro/internal/telemetry"
)

// crashConfig is the cheapest configuration that still trains every
// chunk: the crash and golden tests train many models, also under the
// race detector. It is serial, so which chunks finish before a
// simulated crash is fixed.
func crashConfig() Config {
	cfg := resumeConfig()
	cfg.SeedSteps, cfg.FineTuneSteps = 12, 6
	cfg.Hidden = 12
	cfg.Parallel = false
	return cfg
}

// crashFixture is the shared input of the crash tests: the configuration,
// a trainer over fixed inputs, and the uninterrupted run's trace.
func crashFixture(t *testing.T) (Config, func(Config, Executor) (*FlowSynthesizer, error), []byte) {
	t.Helper()
	real := datasets.UGR16(150, 61)
	public := datasets.CAIDAChicago(400, 62)
	cfg := crashConfig()
	train := func(c Config, ex Executor) (*FlowSynthesizer, error) { return trainFlow(real, public, c, ex) }
	ref, err := train(cfg, Executor{})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, train, flowCSV(t, ref, 200)
}

func restoredCount(st Stats) int {
	n := 0
	for _, r := range st.ChunkResumed {
		if r {
			n++
		}
	}
	return n
}

// TestCrashMatrix kills a checkpointed run at each phase boundary — after
// the seed, after the first fine-tune, and after the last chunk record but
// before Assemble — then resumes it. The resumed run restores exactly the
// durable chunks and generates the uninterrupted run's trace bit for bit.
func TestCrashMatrix(t *testing.T) {
	cfg, train, ref := crashFixture(t)
	cases := []struct {
		name     string
		crash    func() func(int) error
		restored int
	}{
		{"post-seed", func() func(int) error { return crashAfter(0) }, 1},
		{"mid-fine-tune", func() func(int) error { return crashAfter(1) }, 2},
		{"post-all", func() func(int) error {
			var durable atomic.Int32
			return func(int) error {
				if durable.Add(1) == int32(cfg.Chunks) {
					return errCrash
				}
				return nil
			}
		}, cfg.Chunks},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := train(cfg, Executor{Dir: dir, afterChunk: tc.crash()}); !errors.Is(err, errCrash) {
				t.Fatalf("crash run: err = %v, want simulated crash", err)
			}
			syn, err := train(cfg, Executor{Dir: dir, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := restoredCount(syn.Stats()); got != tc.restored {
				t.Fatalf("restored %d chunks, want %d", got, tc.restored)
			}
			if !bytes.Equal(flowCSV(t, syn, 200), ref) {
				t.Fatal("resumed trace differs from uninterrupted run")
			}
		})
	}
}

// TestResumeWithCorruptCheckpointRetrains: a chunk whose payload fails
// its CRC, or is missing, is retrained on resume — to identical bytes.
func TestResumeWithCorruptCheckpointRetrains(t *testing.T) {
	cfg, train, ref := crashFixture(t)
	dir := t.TempDir()
	if _, err := train(cfg, Executor{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	ckpt := container.ChunkBase(dir, 1) + ".ckpt"
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(container.ChunkBase(dir, 2) + ".ckpt"); err != nil {
		t.Fatal(err)
	}
	syn, err := train(cfg, Executor{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := syn.Stats().ChunkResumed, []bool{true, false, false}; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored = %v, want %v", got, want)
	}
	if !bytes.Equal(flowCSV(t, syn, 200), ref) {
		t.Fatal("retrained trace differs from uninterrupted run")
	}
	// The retrained chunks were recorded again.
	if _, _, err := container.ReadChunk(container.ChunkBase(dir, 2)); err != nil {
		t.Fatalf("retrained chunk not recorded: %v", err)
	}
}

var errDisk = errors.New("disk full")

// failWriteFS fails writes to one file name, as a full disk would.
type failWriteFS struct {
	container.OSFS
	name string
}

func (f failWriteFS) WriteFile(name string, data []byte) error {
	if filepath.Base(name) == f.name+".tmp" {
		return errDisk
	}
	return f.OSFS.WriteFile(name, data)
}

// TestFailedCheckpointWriteFailsRun: a checkpoint that cannot be written
// fails the run with the write's error instead of silently training on
// without it, and a later resume completes to the uninterrupted output.
func TestFailedCheckpointWriteFailsRun(t *testing.T) {
	cfg, train, ref := crashFixture(t)
	dir := t.TempDir()
	_, err := train(cfg, Executor{Dir: dir, fs: failWriteFS{name: "chunk-0001.ckpt"}})
	if !errors.Is(err, errDisk) {
		t.Fatalf("err = %v, want the write error", err)
	}
	syn, err := train(cfg, Executor{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := restoredCount(syn.Stats()); got != 1 {
		t.Fatalf("restored %d chunks, want the seed only", got)
	}
	if !bytes.Equal(flowCSV(t, syn, 200), ref) {
		t.Fatal("resumed trace differs from uninterrupted run")
	}
}

// TestResumeRejectsChangedInput: resuming over chunks trained on other
// input data, or under another seed, is an error even though the model
// configuration is unchanged.
func TestResumeRejectsChangedInput(t *testing.T) {
	public := datasets.CAIDAChicago(400, 62)
	cfg := crashConfig()
	dir := t.TempDir()
	if _, err := trainFlow(datasets.UGR16(150, 61), public, cfg, Executor{Dir: dir, afterChunk: crashAfter(0)}); !errors.Is(err, errCrash) {
		t.Fatalf("crash run: err = %v", err)
	}
	if _, err := trainFlow(datasets.UGR16(180, 61), public, cfg, Executor{Dir: dir, Resume: true}); err == nil {
		t.Fatal("resume with different input records must fail")
	}
	reseeded := cfg
	reseeded.Seed++
	if _, err := trainFlow(datasets.UGR16(150, 61), public, reseeded, Executor{Dir: dir, Resume: true}); err == nil {
		t.Fatal("resume with a different seed must fail")
	}
	// The original inputs still resume.
	if _, err := trainFlow(datasets.UGR16(150, 61), public, cfg, Executor{Dir: dir, Resume: true}); err != nil {
		t.Fatalf("resume with the original inputs: %v", err)
	}
}

func dpCrashConfig() Config {
	cfg := crashConfig()
	cfg.Chunks = 1
	cfg.DP = &DPConfig{NoiseMultiplier: 1.1, ClipNorm: 1.0, Delta: 1e-5, Pretrain: true, PretrainSteps: 6}
	return cfg
}

// TestDPResumeReportsEpsilon: a DP run killed after its seed and resumed
// restores the seed without training and still reports the privacy
// budget the uninterrupted run spent.
func TestDPResumeReportsEpsilon(t *testing.T) {
	real := datasets.UGR16(150, 63)
	public := datasets.CAIDAChicago(400, 64)
	cfg := dpCrashConfig()
	ref, err := trainFlow(real, public, cfg, Executor{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := trainFlow(real, public, cfg, Executor{Dir: dir, afterChunk: crashAfter(0)}); !errors.Is(err, errCrash) {
		t.Fatalf("crash run: err = %v", err)
	}
	resumed, err := trainFlow(real, public, cfg, Executor{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Stats().ChunkResumed[0] {
		t.Fatal("resume retrained the DP seed")
	}
	if got, want := resumed.Stats().Epsilon, ref.Stats().Epsilon; got != want || want <= 0 {
		t.Fatalf("resumed epsilon %v, want %v", got, want)
	}
	if !bytes.Equal(flowCSV(t, resumed, 200), flowCSV(t, ref, 200)) {
		t.Fatal("resumed DP trace differs from uninterrupted run")
	}
}

// TestPlanEpsilonMatchesAccountant: the epsilon Stats reports, computed
// from the plan, is the value the trained DP-SGD accountant reached. The
// seed task charts the accountant after every generator step, so the
// last charted point is its final value.
func TestPlanEpsilonMatchesAccountant(t *testing.T) {
	prev := telemetry.Default.Enabled()
	defer telemetry.Default.SetEnabled(prev)
	telemetry.Default.SetEnabled(true)
	telemetry.Default.Reset()

	syn, err := trainFlow(datasets.UGR16(150, 65), datasets.CAIDAChicago(400, 66), dpCrashConfig(), Executor{})
	if err != nil {
		t.Fatal(err)
	}
	pts := telemetry.Default.Series("core.train.chunk0.dp_epsilon").Points()
	if len(pts) == 0 {
		t.Fatal("the DP seed task charted no epsilon")
	}
	if got, want := syn.Stats().Epsilon, pts[len(pts)-1].Value; got != want {
		t.Fatalf("plan epsilon %v, accountant %v", got, want)
	}
}
