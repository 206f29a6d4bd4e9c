package baselines

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/trace"
)

const (
	testSteps = 150
	testRows  = 400
)

func TestCTGANFlowsEndToEnd(t *testing.T) {
	real := datasets.UGR16(testRows, 1)
	m, err := TrainCTGANFlows(real, testSteps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "ctgan" {
		t.Fatal("wrong name")
	}
	if m.TrainTime() <= 0 {
		t.Fatal("train time not recorded")
	}
	gen := m.Generate(200)
	if len(gen.Records) != 200 {
		t.Fatalf("generated %d records", len(gen.Records))
	}
	for i, r := range gen.Records {
		if r.Packets < 1 || r.Bytes < 1 {
			t.Fatalf("record %d invalid counts", i)
		}
		if i > 0 && r.Start < gen.Records[i-1].Start {
			t.Fatal("records must be sorted")
		}
	}
}

func TestCTGANDoesNotRepeatTuples(t *testing.T) {
	// Challenge 1: tabular per-record generation yields essentially no
	// repeated five-tuples (bitwise IP generation rarely collides).
	real := datasets.UGR16(testRows, 2)
	m, err := TrainCTGANFlows(real, testSteps, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen := m.Generate(300)
	counts := trace.RecordsPerTuple(gen)
	multi := 0
	for _, c := range counts {
		if c > 1 {
			multi++
		}
	}
	if frac := float64(multi) / float64(len(counts)); frac > 0.05 {
		t.Fatalf("tabular GAN should rarely repeat tuples, got %v", frac)
	}
}

func TestCTGANPacketsEndToEnd(t *testing.T) {
	real := datasets.CAIDA(testRows, 3)
	m, err := TrainCTGANPackets(real, testSteps, 3)
	if err != nil {
		t.Fatal(err)
	}
	gen := m.AsPacketSynthesizer().Generate(150)
	if len(gen.Packets) != 150 {
		t.Fatalf("generated %d packets", len(gen.Packets))
	}
	// Mode guard.
	defer func() {
		if recover() == nil {
			t.Fatal("Generate on packet-mode CTGAN must panic")
		}
	}()
	m.Generate(1)
}

func TestEWGANGPEndToEnd(t *testing.T) {
	real := datasets.UGR16(testRows, 4)
	m, err := TrainEWGANGP(real, testSteps, 4)
	if err != nil {
		t.Fatal(err)
	}
	gen := m.Generate(200)
	if len(gen.Records) != 200 {
		t.Fatalf("generated %d records", len(gen.Records))
	}
	// All decoded values come from the training dictionary: every IP must
	// have been seen in the real trace.
	realIPs := map[trace.IPv4]bool{}
	for _, r := range real.Records {
		realIPs[r.Tuple.SrcIP] = true
		realIPs[r.Tuple.DstIP] = true
	}
	for i, r := range gen.Records {
		if !realIPs[r.Tuple.SrcIP] {
			t.Fatalf("record %d source IP %v not in dictionary", i, r.Tuple.SrcIP)
		}
		if r.Packets < 1 || r.Bytes < 1 {
			t.Fatalf("record %d invalid counts", i)
		}
	}
}

func TestEWGANGPTruncatesSupport(t *testing.T) {
	// Challenge 2: bin decoding caps the representable packet counts at the
	// largest bin center observed in training.
	real := datasets.UGR16(600, 5)
	m, err := TrainEWGANGP(real, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	var realMax int64
	for _, r := range real.Records {
		if r.Packets > realMax {
			realMax = r.Packets
		}
	}
	gen := m.Generate(300)
	for _, r := range gen.Records {
		// Bin centers can exceed the max observed value by at most one
		// half-bin of log space; allow 2x slack.
		if r.Packets > realMax*2+2 {
			t.Fatalf("generated %d packets, beyond dictionary support (max real %d)", r.Packets, realMax)
		}
	}
}

func TestSTANEndToEnd(t *testing.T) {
	real := datasets.UGR16(testRows, 6)
	m, err := TrainSTAN(real, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	gen := m.Generate(200)
	if len(gen.Records) != 200 {
		t.Fatalf("generated %d records", len(gen.Records))
	}
	// STAN draws host IPs from the real data.
	realHosts := map[trace.IPv4]bool{}
	for _, r := range real.Records {
		realHosts[r.Tuple.SrcIP] = true
	}
	for i, r := range gen.Records {
		if !realHosts[r.Tuple.SrcIP] {
			t.Fatalf("record %d host %v not drawn from real data", i, r.Tuple.SrcIP)
		}
		if r.Packets < 1 || r.Bytes < 1 {
			t.Fatalf("record %d invalid counts", i)
		}
	}
}

func TestPACGANEndToEnd(t *testing.T) {
	real := datasets.CAIDA(testRows, 7)
	m, err := TrainPACGAN(real, testSteps, 7)
	if err != nil {
		t.Fatal(err)
	}
	gen := m.Generate(200)
	if len(gen.Packets) != 200 {
		t.Fatalf("generated %d packets", len(gen.Packets))
	}
	// PAC-GAN's out-of-band Gaussian timestamps track the real mean well —
	// the effect behind its "perfect" PAT metric.
	meanTime := func(t *trace.PacketTrace) float64 {
		var s float64
		for _, p := range t.Packets {
			s += float64(p.Time)
		}
		return s / float64(len(t.Packets))
	}
	realMean, genMean := meanTime(real), meanTime(gen)
	if metrics.RelativeError(realMean, genMean) > 0.25 {
		t.Fatalf("PAC-GAN timestamps should match the training mean: %v vs %v", realMean, genMean)
	}
}

func TestPacketCGANEndToEnd(t *testing.T) {
	real := datasets.CAIDA(testRows, 8)
	m, err := TrainPacketCGAN(real, testSteps, 8)
	if err != nil {
		t.Fatal(err)
	}
	gen := m.Generate(200)
	if len(gen.Packets) != 200 {
		t.Fatalf("generated %d packets", len(gen.Packets))
	}
	// Conditioning preserves the protocol mix approximately.
	realTCP, genTCP := 0, 0
	for _, p := range real.Packets {
		if p.Tuple.Proto == trace.TCP {
			realTCP++
		}
	}
	for _, p := range gen.Packets {
		if p.Tuple.Proto == trace.TCP {
			genTCP++
		}
	}
	realFrac := float64(realTCP) / float64(len(real.Packets))
	genFrac := float64(genTCP) / float64(len(gen.Packets))
	if metrics.RelativeError(realFrac, genFrac) > 0.3 {
		t.Fatalf("protocol mix not preserved: %v vs %v", realFrac, genFrac)
	}
}

func TestFlowWGANEndToEnd(t *testing.T) {
	real := datasets.CAIDA(testRows, 9)
	m, err := TrainFlowWGAN(real, testSteps, 9)
	if err != nil {
		t.Fatal(err)
	}
	gen := m.Generate(200)
	if len(gen.Packets) != 200 {
		t.Fatalf("generated %d packets", len(gen.Packets))
	}
	for i, p := range gen.Packets {
		if p.Size > FlowWGANMaxPacket {
			t.Fatalf("packet %d size %d exceeds the cap", i, p.Size)
		}
	}
	// Random IPs: generated addresses should essentially never hit the
	// small real address pool.
	realIPs := map[trace.IPv4]bool{}
	for _, p := range real.Packets {
		realIPs[p.Tuple.SrcIP] = true
	}
	hits := 0
	for _, p := range gen.Packets {
		if realIPs[p.Tuple.SrcIP] {
			hits++
		}
	}
	if hits > 5 {
		t.Fatalf("Flow-WGAN should generate random IPs, got %d dictionary hits", hits)
	}
}

func TestTabularGANValidation(t *testing.T) {
	if _, err := newTabularGAN(tabularConfig{}); err == nil {
		t.Fatal("empty config must fail")
	}
	cfg := defaultTabularConfig(ctganFlowSchema())
	g, err := newTabularGAN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.train(nil, nil, 1); err == nil {
		t.Fatal("no rows must fail")
	}
	if err := g.train([][]float64{{1, 2}}, nil, 1); err == nil {
		t.Fatal("wrong width must fail")
	}
}

func TestBaselineNamesListed(t *testing.T) {
	if len(FlowBaselineNames) != 3 || len(PacketBaselineNames) != 4 {
		t.Fatal("baseline name lists out of sync with the paper")
	}
}
