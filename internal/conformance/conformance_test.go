package conformance

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/trace"
)

// fixture trains one flow and one packet synthesizer (training dominates
// runtime) and shares them; individual tests draw fast-path samples from
// fresh snapshots.
var fixture struct {
	once sync.Once
	flow *core.FlowSynthesizer
	pkt  *core.PacketSynthesizer
	err  error
}

const sampleN = 3000

func trainedSynthesizers(t *testing.T) (*core.FlowSynthesizer, *core.PacketSynthesizer) {
	t.Helper()
	fixture.once.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Chunks = 2
		cfg.MaxLen = 4
		cfg.SeedSteps = 60
		cfg.FineTuneSteps = 20
		cfg.EmbedEpochs = 2
		cfg.Hidden = 24
		public := datasets.CAIDAChicago(1200, 2)
		fixture.flow, fixture.err = core.TrainFlowSynthesizer(
			datasets.UGR16(300, 1), public, cfg)
		if fixture.err != nil {
			return
		}
		fixture.pkt, fixture.err = core.TrainPacketSynthesizer(
			datasets.CAIDAChicago(900, 1), public, cfg)
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.flow, fixture.pkt
}

func logReport(t *testing.T, label string, rep Report) {
	t.Helper()
	var parts []string
	for _, m := range []struct {
		kind string
		vals map[string]float64
	}{{"jsd", rep.JSD}, {"emd", rep.EMD}} {
		fields := make([]string, 0, len(m.vals))
		for f := range m.vals {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			parts = append(parts, fmt.Sprintf("%s/%s=%.4f", f, m.kind, m.vals[f]))
		}
	}
	t.Logf("%s: %s", label, strings.Join(parts, " "))
}

// TestFlowFastPathConforms guarantees that the float32 fast path's output
// is distributionally indistinguishable (within thresholds) from the
// float64 reference path, and that every record it emits is valid.
func TestFlowFastPathConforms(t *testing.T) {
	syn, _ := trainedSynthesizers(t)
	ref := syn.Generate(sampleN)
	fast := syn.Fast().Generate(sampleN)

	if v := FlowViolations(ref); v != nil {
		t.Fatalf("reference path emitted invalid records: %v", v)
	}
	if v := FlowViolations(fast); v != nil {
		t.Fatalf("fast path emitted invalid records: %v", v)
	}

	rep := FlowReport(ref, fast)
	logReport(t, "flow fast-vs-ref", rep)
	if violations := rep.Check(DefaultFlowThresholds); len(violations) > 0 {
		t.Fatalf("fast path diverges from reference: %v", violations)
	}
}

// TestFlowNoiseFloor anchors the thresholds: two independent draws from
// the SAME (fast) distribution must also pass, i.e. the gate is looser
// than sampling noise — otherwise it would flake on unlucky seeds rather
// than detect real shifts.
func TestFlowNoiseFloor(t *testing.T) {
	syn, _ := trainedSynthesizers(t)
	f := syn.Fast()
	a := f.Generate(sampleN) // the snapshot's RNG advances between calls,
	b := f.Generate(sampleN) // so a and b are independent draws
	rep := FlowReport(a, b)
	logReport(t, "flow noise floor", rep)
	if violations := rep.Check(DefaultFlowThresholds); len(violations) > 0 {
		t.Fatalf("thresholds are tighter than sampling noise: %v", violations)
	}
}

// TestFlowThresholdsHaveTeeth distorts single fields of a conforming trace
// and requires the gate to catch each distortion — a harness that cannot
// fail pins nothing.
func TestFlowThresholdsHaveTeeth(t *testing.T) {
	syn, _ := trainedSynthesizers(t)
	ref := syn.Generate(sampleN)

	distorted := &trace.FlowTrace{Records: append([]trace.FlowRecord(nil), ref.Records...)}
	span := ref.Duration()
	for i := range distorted.Records {
		distorted.Records[i].Tuple.SrcPort = 0   // collapse SP to one value
		distorted.Records[i].Start += 2 * span   // shift TS by 2x the range
		distorted.Records[i].Packets = 1_000_000 // move PKT mass far out
	}
	rep := FlowReport(ref, distorted)
	violations := rep.Check(DefaultFlowThresholds)
	for _, field := range []string{"SP", "TS", "PKT"} {
		found := false
		for _, v := range violations {
			if v.Field == field {
				found = true
			}
		}
		if !found {
			t.Fatalf("distorted field %s not flagged; violations: %v report: %+v",
				field, violations, rep)
		}
	}
}

// TestPacketFastPathConforms is the packet-model twin of the flow gate.
func TestPacketFastPathConforms(t *testing.T) {
	_, syn := trainedSynthesizers(t)
	ref := syn.Generate(sampleN)
	fast := syn.Fast().Generate(sampleN)

	if v := PacketViolations(ref); v != nil {
		t.Fatalf("reference path emitted invalid packets: %v", v)
	}
	if v := PacketViolations(fast); v != nil {
		t.Fatalf("fast path emitted invalid packets: %v", v)
	}

	rep := PacketReport(ref, fast)
	logReport(t, "packet fast-vs-ref", rep)
	if violations := rep.Check(DefaultPacketThresholds); len(violations) > 0 {
		t.Fatalf("fast path diverges from reference: %v", violations)
	}
}

func TestPacketNoiseFloor(t *testing.T) {
	_, syn := trainedSynthesizers(t)
	f := syn.Fast()
	rep := PacketReport(f.Generate(sampleN), f.Generate(sampleN))
	logReport(t, "packet noise floor", rep)
	if violations := rep.Check(DefaultPacketThresholds); len(violations) > 0 {
		t.Fatalf("thresholds are tighter than sampling noise: %v", violations)
	}
}

func TestPacketThresholdsHaveTeeth(t *testing.T) {
	_, syn := trainedSynthesizers(t)
	ref := syn.Generate(sampleN)
	distorted := &trace.PacketTrace{Packets: append([]trace.Packet(nil), ref.Packets...)}
	for i := range distorted.Packets {
		distorted.Packets[i].Size = trace.MaxPacket // collapse PS to the max
		distorted.Packets[i].Tuple.Proto = trace.ICMP
	}
	rep := PacketReport(ref, distorted)
	violations := rep.Check(DefaultPacketThresholds)
	for _, field := range []string{"PS", "PR"} {
		found := false
		for _, v := range violations {
			if v.Field == field {
				found = true
			}
		}
		if !found {
			t.Fatalf("distorted field %s not flagged; violations: %v report: %+v",
				field, violations, rep)
		}
	}
}

// TestViolationDetectors unit-tests the property checks on handcrafted
// invalid traces (the generated-path tests only ever see valid ones).
func TestViolationDetectors(t *testing.T) {
	bad := &trace.FlowTrace{Records: []trace.FlowRecord{
		{Tuple: trace.FiveTuple{Proto: trace.TCP}, Start: 100, Packets: 0, Bytes: 10},
		{Tuple: trace.FiveTuple{Proto: 99}, Start: 50, Packets: 2, Bytes: 0, Duration: -1},
	}}
	got := FlowViolations(bad)
	for _, want := range []string{"packets 0", "unknown protocol 99", "bytes 0", "negative duration", "before predecessor"} {
		if !containsSubstring(got, want) {
			t.Fatalf("flow violations %v missing %q", got, want)
		}
	}

	badPkt := &trace.PacketTrace{Packets: []trace.Packet{
		{Tuple: trace.FiveTuple{Proto: trace.TCP}, Time: 100, Size: 1},
		{Tuple: trace.FiveTuple{Proto: 200}, Time: 50, Size: trace.MaxPacket + 1},
	}}
	gotPkt := PacketViolations(badPkt)
	for _, want := range []string{"size 1 outside", "unknown protocol 200", "before predecessor", "size 65536 outside"} {
		if !containsSubstring(gotPkt, want) {
			t.Fatalf("packet violations %v missing %q", gotPkt, want)
		}
	}

	if v := FlowViolations(&trace.FlowTrace{}); v != nil {
		t.Fatalf("empty trace must be valid, got %v", v)
	}
}

func containsSubstring(haystack []string, needle string) bool {
	for _, s := range haystack {
		if strings.Contains(s, needle) {
			return true
		}
	}
	return false
}

// TestCheckEdgeCases pins Check's NaN handling and ordering.
func TestCheckEdgeCases(t *testing.T) {
	rep := Report{
		JSD: map[string]float64{"B": math.NaN(), "A": 0.9},
		EMD: map[string]float64{"C": math.Inf(1)},
	}
	got := rep.Check(Thresholds{JSD: 0.5, EMD: 0.1})
	if len(got) != 3 {
		t.Fatalf("want 3 violations, got %v", got)
	}
	for i, field := range []string{"A", "B", "C"} {
		if got[i].Field != field {
			t.Fatalf("violations not sorted by field: %v", got)
		}
	}
	if rep := (Report{}); len(rep.Check(Thresholds{})) != 0 {
		t.Fatal("empty report must conform")
	}
}
