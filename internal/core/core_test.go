package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// testConfig is a fast configuration for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Chunks = 3
	cfg.MaxLen = 4
	cfg.SeedSteps = 120
	cfg.FineTuneSteps = 40
	cfg.EmbedEpochs = 2
	cfg.Hidden = 24
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testConfig()
	bad.Chunks = 0
	if bad.Validate() == nil {
		t.Fatal("Chunks=0 must fail")
	}
	bad = testConfig()
	bad.SeedSteps = 0
	if bad.Validate() == nil {
		t.Fatal("SeedSteps=0 must fail")
	}
	bad = testConfig()
	bad.DP = &DPConfig{NoiseMultiplier: -1, ClipNorm: 1, Delta: 1e-5}
	if bad.Validate() == nil {
		t.Fatal("bad DP config must fail")
	}
	bad = testConfig()
	bad.DP = &DPConfig{NoiseMultiplier: 1, ClipNorm: 1, Delta: 1e-5, Pretrain: true}
	if bad.Validate() == nil {
		t.Fatal("Pretrain without steps must fail")
	}
}

func TestSplitCounts(t *testing.T) {
	got := splitCounts(10, []int{3, 1, 0})
	if got[0]+got[1]+got[2] != 10 {
		t.Fatalf("counts must sum to n: %v", got)
	}
	if got[2] != 0 {
		t.Fatal("empty chunks must receive nothing")
	}
	if got[0] <= got[1] {
		t.Fatalf("larger chunk must receive more: %v", got)
	}
	if sum := splitCounts(5, []int{0, 0}); sum[0]+sum[1] != 0 {
		t.Fatal("all-empty chunks must receive nothing")
	}
}

// TestForEachChunkBoundedByParallelism: with Parallel set, Parallelism 2
// and 7 chunks, at most 2 callbacks run at once and every chunk runs
// exactly once.
func TestForEachChunkBoundedByParallelism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallel, cfg.Parallelism = true, 2
	const n = 7
	var running, peak atomic.Int32
	var calls [n]atomic.Int32
	forEachChunk(cfg, n, func(i int) {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		calls[i].Add(1)
		running.Add(-1)
	})
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d callbacks ran at once, want at most 2", p)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("chunk %d ran %d times, want 1", i, c)
		}
	}
}

func TestFlowSynthesizerEndToEnd(t *testing.T) {
	real := datasets.UGR16(400, 1)
	public := datasets.CAIDAChicago(1500, 2)
	syn, err := TrainFlowSynthesizer(real, public, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen := syn.Generate(300)
	if len(gen.Records) != 300 {
		t.Fatalf("generated %d records", len(gen.Records))
	}
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
	st := syn.Stats()
	if st.CPUTime <= 0 || st.WallTime <= 0 || st.SeedTime <= 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
	if len(st.ChunkSamples) != 3 {
		t.Fatalf("chunk sample counts: %v", st.ChunkSamples)
	}
	// Fidelity sanity: the trained model must beat a trivially wrong trace.
	rep := metrics.CompareFlows(real, gen)
	if rep.AvgJSD() >= 1 {
		t.Fatalf("average JSD = %v, model learned nothing", rep.AvgJSD())
	}
}

func TestFlowSynthesizerRequiresInputs(t *testing.T) {
	public := datasets.CAIDAChicago(500, 1)
	if _, err := TrainFlowSynthesizer(&trace.FlowTrace{}, public, testConfig()); err == nil {
		t.Fatal("empty trace must fail")
	}
	real := datasets.UGR16(100, 1)
	if _, err := TrainFlowSynthesizer(real, nil, testConfig()); err == nil {
		t.Fatal("missing public trace must fail")
	}
	bad := testConfig()
	bad.MaxLen = 0
	if _, err := TrainFlowSynthesizer(real, public, bad); err == nil {
		t.Fatal("invalid config must fail")
	}
}

func TestPacketSynthesizerEndToEnd(t *testing.T) {
	real := datasets.CAIDA(800, 3)
	public := datasets.CAIDAChicago(1500, 4)
	cfg := testConfig()
	syn, err := TrainPacketSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := syn.Generate(400)
	if len(gen.Packets) != 400 {
		t.Fatalf("generated %d packets", len(gen.Packets))
	}
	for i, p := range gen.Packets {
		if p.Size < trace.MinPacketSize(p.Tuple.Proto) {
			t.Fatalf("packet %d size %d below protocol minimum", i, p.Size)
		}
		if p.Size > trace.MaxPacket {
			t.Fatalf("packet %d oversized", i)
		}
		if i > 0 && p.Time < gen.Packets[i-1].Time {
			t.Fatal("generated packets must be time sorted")
		}
	}
	// NetShare's key property (Fig. 1b): multi-packet flows exist.
	flows := trace.SplitFlows(gen)
	multi := 0
	for _, f := range flows {
		if len(f.Packets) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("generated trace has no multi-packet flows")
	}
}

func TestGeneratedHeadersAreValid(t *testing.T) {
	real := datasets.CAIDA(400, 5)
	public := datasets.CAIDAChicago(1000, 6)
	cfg := testConfig()
	cfg.Chunks = 1
	cfg.SeedSteps = 60
	syn, err := TrainPacketSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := syn.Generate(50)
	for i, h := range Headers(gen) {
		if !trace.VerifyChecksum(h) {
			t.Fatalf("header %d has an invalid checksum", i)
		}
	}
}

func TestNetShareV0SingleChunk(t *testing.T) {
	real := datasets.UGR16(200, 7)
	public := datasets.CAIDAChicago(800, 8)
	cfg := testConfig()
	cfg.Chunks = 1 // NetShare-V0: no chunked fine-tuning
	cfg.SeedSteps = 80
	syn, err := TrainFlowSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(syn.models) != 1 {
		t.Fatalf("V0 should have a single model, got %d", len(syn.models))
	}
	if gen := syn.Generate(100); len(gen.Records) != 100 {
		t.Fatal("V0 generation failed")
	}
}

func TestChunkingReducesCPUvsV0(t *testing.T) {
	// Insight 3's claim, scaled down: M chunks with fine-tuning spend less
	// total compute than training every chunk from scratch at full budget.
	// We compare CPU time of the chunked run against (Chunks × seed-time),
	// the cost of the no-fine-tuning alternative.
	real := datasets.UGR16(400, 9)
	public := datasets.CAIDAChicago(1000, 10)
	cfg := testConfig()
	cfg.Parallel = false
	syn, err := TrainFlowSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := syn.Stats()
	scratch := time.Duration(cfg.Chunks) * st.SeedTime
	if st.CPUTime >= scratch {
		t.Fatalf("fine-tuning should be cheaper than %d× from-scratch: %v vs %v",
			cfg.Chunks, st.CPUTime, scratch)
	}
}

func TestDPTrainingReportsEpsilon(t *testing.T) {
	real := datasets.UGR16(150, 11)
	public := datasets.CAIDAChicago(800, 12)
	cfg := testConfig()
	cfg.Chunks = 1
	cfg.SeedSteps = 20
	cfg.DP = &DPConfig{
		NoiseMultiplier: 1.0, ClipNorm: 1.0, Delta: 1e-5,
		Pretrain: true, PretrainSteps: 20,
	}
	syn, err := TrainFlowSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eps := syn.Stats().Epsilon; eps <= 0 {
		t.Fatalf("epsilon = %v, want positive", eps)
	}
	if gen := syn.Generate(50); len(gen.Records) != 50 {
		t.Fatal("DP model generation failed")
	}
}

func TestDPStepsAndNoiseCalibration(t *testing.T) {
	cfg := testConfig()
	cfg.SeedSteps = 50
	cfg.CriticIters = 2
	if got := cfg.DPSteps(); got != 200 {
		t.Fatalf("DPSteps = %d, want 200", got)
	}
	// Tighter epsilon targets require more noise.
	loose := cfg.NoiseForTargetEpsilon(100, 1e-5, 500)
	tight := cfg.NoiseForTargetEpsilon(2, 1e-5, 500)
	if tight <= loose {
		t.Fatalf("tighter target should need more noise: %v vs %v", tight, loose)
	}
	if loose <= 0 {
		t.Fatalf("noise must be positive, got %v", loose)
	}
}

func TestTransformIPs(t *testing.T) {
	tpl := trace.FiveTuple{
		SrcIP: trace.IPv4FromBytes(42, 10, 3, 7),
		DstIP: trace.IPv4FromBytes(187, 20, 9, 1),
	}
	tr := &trace.FlowTrace{Records: []trace.FlowRecord{{Tuple: tpl}}}
	TransformIPs(tr, trace.IPv4FromBytes(10, 0, 0, 0), 8)
	got := tr.Records[0].Tuple
	if got.SrcIP.Octets()[0] != 10 || got.DstIP.Octets()[0] != 10 {
		t.Fatalf("IPs not remapped: %v %v", got.SrcIP, got.DstIP)
	}
	// Host bits preserved.
	if got.SrcIP.Octets()[3] != 7 {
		t.Fatal("host bits must be preserved")
	}
}

func TestAblationKnobs(t *testing.T) {
	real := datasets.UGR16(200, 20)
	public := datasets.CAIDAChicago(800, 21)
	cfg := testConfig()
	cfg.Chunks = 2
	cfg.SeedSteps = 40
	cfg.FineTuneSteps = 15
	cfg.DisableFlowTags = true
	cfg.DisableLogTransform = true
	syn, err := TrainFlowSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gen := syn.Generate(100); len(gen.Records) != 100 {
		t.Fatal("ablated pipeline must still generate")
	}
}

func TestIPVectorEncodingAblation(t *testing.T) {
	real := datasets.UGR16(250, 22)
	public := datasets.CAIDAChicago(1000, 23)
	cfg := testConfig()
	cfg.Chunks = 2
	cfg.SeedSteps = 60
	cfg.FineTuneSteps = 20
	cfg.IPVectorEncoding = true
	syn, err := TrainFlowSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := syn.Generate(200)
	if len(gen.Records) != 200 {
		t.Fatal("IP-vector pipeline must generate")
	}
	// The Table 2 privacy concern, made concrete: every generated address
	// decodes from the PRIVATE dictionary, i.e. is a real trace address.
	realIPs := map[trace.IPv4]bool{}
	for _, r := range real.Records {
		realIPs[r.Tuple.SrcIP] = true
		realIPs[r.Tuple.DstIP] = true
	}
	for i, r := range gen.Records {
		if !realIPs[r.Tuple.SrcIP] || !realIPs[r.Tuple.DstIP] {
			t.Fatalf("record %d has an address outside the private dictionary", i)
		}
	}
	// Ablation models are not persistable.
	if err := syn.Save(&discardWriter{}); err == nil {
		t.Fatal("IP-vector models must refuse Save")
	}
	// And the mode is incompatible with DP.
	bad := cfg
	bad.DP = &DPConfig{NoiseMultiplier: 1, ClipNorm: 1, Delta: 1e-5}
	if bad.Validate() == nil {
		t.Fatal("IP vector encoding + DP must be rejected")
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestEncodeTags(t *testing.T) {
	cfg := testConfig()
	cfg.Chunks = 3
	tags := trace.FlowTags{StartsHere: true, Presence: []bool{true, false, true}}
	got := encodeTags(cfg, tags)
	want := []float64{1, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("encodeTags = %v, want %v", got, want)
		}
	}
	cfg.DisableFlowTags = true
	for _, v := range encodeTags(cfg, tags) {
		if v != 0 {
			t.Fatal("ablated tags must be zero")
		}
	}
}

func TestPortEmbeddingRoundTrip(t *testing.T) {
	public := datasets.CAIDAChicago(2000, 13)
	pe, err := newPortEmbedding(public, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range trace.ServicePorts {
		enc := pe.encodePort(p)
		if len(enc) != 8 {
			t.Fatalf("embedding width %d", len(enc))
		}
		for _, v := range enc {
			if v < 0 || v > 1 {
				t.Fatalf("embedding value %v outside [0,1]", v)
			}
		}
		if got := pe.decodePort(enc); got != p {
			t.Fatalf("port %d decoded to %d", p, got)
		}
	}
	for _, proto := range []trace.Protocol{trace.TCP, trace.UDP} {
		if got := pe.decodeProto(pe.encodeProto(proto)); got != proto {
			t.Fatalf("protocol %v decoded to %v", proto, got)
		}
	}
}

func TestPortEmbeddingUnseenPortFallsBack(t *testing.T) {
	public := datasets.CAIDAChicago(1000, 14)
	pe, err := newPortEmbedding(public, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Encoding an arbitrary (likely unseen) port must not panic and must
	// produce a decodable vector.
	enc := pe.encodePort(4)
	if got := pe.decodePort(enc); got == 0 && len(pe.ports) > 0 {
		t.Fatalf("fallback decode produced port 0")
	}
}
