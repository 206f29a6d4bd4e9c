package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/mat"
	"repro/internal/trace"
)

// fastFixture trains each synthesizer once and shares it across this
// file's tests (training dominates their runtime; the snapshot under test
// is cheap to rebuild per test).
var fastFixture struct {
	once sync.Once
	flow *FlowSynthesizer
	pkt  *PacketSynthesizer
	err  error
}

func fastTestConfig() Config {
	cfg := testConfig()
	cfg.Chunks = 2
	cfg.SeedSteps = 60
	cfg.FineTuneSteps = 20
	return cfg
}

func trainedSynthesizers(t *testing.T) (*FlowSynthesizer, *PacketSynthesizer) {
	t.Helper()
	fastFixture.once.Do(func() {
		public := datasets.CAIDAChicago(1200, 2)
		fastFixture.flow, fastFixture.err = TrainFlowSynthesizer(
			datasets.UGR16(300, 1), public, fastTestConfig())
		if fastFixture.err != nil {
			return
		}
		fastFixture.pkt, fastFixture.err = TrainPacketSynthesizer(
			datasets.CAIDAChicago(900, 1), public, fastTestConfig())
	})
	if fastFixture.err != nil {
		t.Fatal(fastFixture.err)
	}
	return fastFixture.flow, fastFixture.pkt
}

// validFlows fails unless every record of gen has positive counts, a
// non-negative duration and start order, and returns the record count.
func validFlows(t *testing.T, gen *trace.FlowTrace) int {
	t.Helper()
	for i, r := range gen.Records {
		if r.Packets < 1 || r.Bytes < 1 {
			t.Fatalf("record %d has non-positive counts: %+v", i, r)
		}
		if r.Duration < 0 {
			t.Fatalf("record %d has negative duration", i)
		}
		if i > 0 && r.Start < gen.Records[i-1].Start {
			t.Fatal("generated records must be start sorted")
		}
	}
	return len(gen.Records)
}

// validPackets fails unless every packet of gen has a valid size and time
// order, and returns the packet count.
func validPackets(t *testing.T, gen *trace.PacketTrace) int {
	t.Helper()
	for i, p := range gen.Packets {
		if p.Size < trace.MinPacketSize(p.Tuple.Proto) || p.Size > trace.MaxPacket {
			t.Fatalf("packet %d size %d outside valid range", i, p.Size)
		}
		if i > 0 && p.Time < gen.Packets[i-1].Time {
			t.Fatal("assembled packets must be time sorted")
		}
	}
	return len(gen.Packets)
}

// checkGenerateCounts asks gen for n items and for the counts 0, -1 and -n,
// and fails unless each trace holds exactly max(count, 0): the shared chunk
// fan-out clamps the count for both generate modes.
func checkGenerateCounts(t *testing.T, n int, gen func(n int) int) {
	t.Helper()
	for _, c := range []int{n, 0, -1, -n} {
		if got, want := gen(c), max(c, 0); got != want {
			t.Fatalf("Generate(%d) gave %d, want %d", c, got, want)
		}
	}
}

// TestExactGenerateValidAndExact: the exact mode of both trace kinds emits
// exactly the requested number of valid, time-sorted records or packets.
func TestExactGenerateValidAndExact(t *testing.T) {
	flow, pkt := trainedSynthesizers(t)
	t.Run("flow", func(t *testing.T) {
		checkGenerateCounts(t, 250, func(n int) int { return validFlows(t, flow.Generate(n)) })
	})
	t.Run("packet", func(t *testing.T) {
		checkGenerateCounts(t, 220, func(n int) int { return validPackets(t, pkt.Generate(n)) })
	})
}

func TestFastFlowGenerateValidAndExact(t *testing.T) {
	syn, _ := trainedSynthesizers(t)
	fast := syn.Fast()
	checkGenerateCounts(t, 250, func(n int) int { return validFlows(t, fast.Generate(n)) })
}

// TestFastFlowReproducibleAcrossParallelism: fresh snapshots of the same
// trained synthesizer emit identical consecutive traces at every worker
// count. It runs
// once per matmul kernel set, because the race detector cannot see the
// memory accesses of the assembly MulInto32.
func TestFastFlowReproducibleAcrossParallelism(t *testing.T) {
	syn, _ := trainedSynthesizers(t)
	mat.ForEachKernelSet(func(name string) {
		t.Run(name, func(t *testing.T) {
			ref := syn.Fast()
			ref.SetParallelism(1)
			want := []*trace.FlowTrace{ref.Generate(90), ref.Generate(60)}
			for _, p := range []int{2, 0} {
				f := syn.Fast()
				f.SetParallelism(p)
				got := []*trace.FlowTrace{f.Generate(90), f.Generate(60)}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("Parallelism=%d output diverges", p)
				}
			}
		})
	})
}

// TestFastFlowSaveLoadRoundTrip: a snapshot built from a saved and
// reloaded model generates the same trace as one built from the trained
// model, so serving from the registry matches serving fresh.
func TestFastFlowSaveLoadRoundTrip(t *testing.T) {
	syn, _ := trainedSynthesizers(t)
	var buf bytes.Buffer
	if err := syn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlowSynthesizer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(syn.Fast().Generate(180), loaded.Fast().Generate(180)) {
		t.Fatal("snapshot of the loaded model must generate the identical trace")
	}
}

// TestFastPacketGenerateValidAndExact: every fast packet generate emits
// exactly its count of valid, time-sorted packets.
func TestFastPacketGenerateValidAndExact(t *testing.T) {
	_, syn := trainedSynthesizers(t)
	fast := syn.Fast()
	checkGenerateCounts(t, 220, func(n int) int { return validPackets(t, fast.Generate(n)) })
}

// TestFastPacketGenerateBatchExactCounts: consecutive requests of
// different sizes served by one snapshot each get exactly their count.
func TestFastPacketGenerateBatchExactCounts(t *testing.T) {
	_, syn := trainedSynthesizers(t)
	fast := syn.Fast()
	for _, n := range []int{150, 40, 17} {
		if got := validPackets(t, fast.Generate(n)); got != n {
			t.Fatalf("Generate(%d) gave %d packets", n, got)
		}
	}
}

// TestFastPacketSaveLoadRoundTrip is the packet twin of
// TestFastFlowSaveLoadRoundTrip.
func TestFastPacketSaveLoadRoundTrip(t *testing.T) {
	_, syn := trainedSynthesizers(t)
	var buf bytes.Buffer
	if err := syn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPacketSynthesizer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(syn.Fast().Generate(160), loaded.Fast().Generate(160)) {
		t.Fatal("snapshot of the loaded model must generate the identical trace")
	}
}

// raceEnabled reports a -race build (race_test.go), where sync.Pool drops
// items at random, so allocation counts are not exact.
var raceEnabled bool

// serveFixture is the serve model shape of the repository benchmark's
// serve workloads: DefaultConfig trained with 40/20 steps on 3000 UGR16
// records and a 5000-packet public CAIDA trace.
var serveFixture struct {
	once sync.Once
	syn  *FlowSynthesizer
	err  error
}

// serveModel returns a fresh fast snapshot of the serve-shaped model.
func serveModel(tb testing.TB) *FastFlowSynthesizer {
	tb.Helper()
	serveFixture.once.Do(func() {
		cfg := DefaultConfig()
		cfg.SeedSteps, cfg.FineTuneSteps = 40, 20
		serveFixture.syn, serveFixture.err = TrainFlowSynthesizer(datasets.UGR16(3000, 1), datasets.CAIDAChicago(5000, 2), cfg)
	})
	if serveFixture.err != nil {
		tb.Fatal(serveFixture.err)
	}
	return serveFixture.syn.Fast()
}

// BenchmarkFastGenerate times one fast-path generate on the serve model
// shape: the float32 sampler, the tuple decode, record assembly and the
// keyed sort.
func BenchmarkFastGenerate(b *testing.B) {
	fast := serveModel(b)
	for _, n := range []int{200, 10000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			fast.Generate(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fast.Generate(n)
			}
		})
	}
}

// maxFastGenerateAllocs bounds a warm Fast().Generate(10000) on 2
// workers, which makes about 205 allocations: the returned trace and its
// records, the sort keys, the chunk and lot fan-outs' goroutines, and each
// decoded batch's nearest-word results, all per call or per batch. One
// allocation per lot (about 80 lots) or per sample (about 5000) breaks it.
const maxFastGenerateAllocs = 250

// TestFastGenerateAllocs: once the pooled sample storage has grown, a
// 10000-record fast generate allocates a bounded number of times.
func TestFastGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled storage at random under the race detector")
	}
	fast := serveModel(t)
	// The fan-outs' goroutine count, and with it their allocations,
	// follows the worker count; the output does not.
	fast.SetParallelism(2)
	fast.Generate(10000)
	if n := testing.AllocsPerRun(5, func() { fast.Generate(10000) }); n > maxFastGenerateAllocs {
		t.Fatalf("warm Generate(10000) makes %v allocations, want at most %d", n, maxFastGenerateAllocs)
	}
}
