package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dgan"
	"repro/internal/encoding"
	"repro/internal/ip2vec"
	"repro/internal/mat"
	"repro/internal/trace"
)

// reseedGen puts every chunk model back on its canonical generation stream,
// as plan assembly and the synthesizer loaders do, so repeated Generate calls
// in a test start from identical RNG state.
func reseedGen(models []*dgan.Model, seed int64) {
	for i, m := range models {
		m.Reseed(genSeed(seed, genStream, i))
	}
}

// TestFlowGenerateGolden is the pipeline's end-to-end determinism check:
// the same trained weights and generation seed must emit a byte-identical
// trace at parallelism 1, 2, and 4, and after a save/load round trip.
func TestFlowGenerateGolden(t *testing.T) {
	real := datasets.UGR16(300, 31)
	public := datasets.CAIDAChicago(1200, 32)
	cfg := testConfig()
	syn, err := TrainFlowSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const n = 250
	syn.SetParallelism(1)
	reseedGen(syn.models, cfg.Seed)
	ref := syn.Generate(n)
	if len(ref.Records) != n {
		t.Fatalf("generated %d records, want %d", len(ref.Records), n)
	}
	for _, p := range []int{2, 4, 0} {
		syn.SetParallelism(p)
		reseedGen(syn.models, cfg.Seed)
		got := syn.Generate(n)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("parallelism %d trace diverges from serial", p)
		}
	}

	// Save/load: the loader reseeds onto the same canonical streams, so the
	// first generation after load matches the first after training exactly.
	var buf bytes.Buffer
	if err := syn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlowSynthesizer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded.SetParallelism(3)
	if got := loaded.Generate(n); !reflect.DeepEqual(ref, got) {
		t.Fatal("loaded synthesizer trace diverges from the trained one")
	}
}

// TestPacketGenerateGolden mirrors the flow check for the packet pipeline.
func TestPacketGenerateGolden(t *testing.T) {
	real := datasets.CAIDA(600, 33)
	public := datasets.CAIDAChicago(1200, 34)
	cfg := testConfig()
	syn, err := TrainPacketSynthesizer(real, public, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const n = 300
	syn.SetParallelism(1)
	reseedGen(syn.models, cfg.Seed)
	ref := syn.Generate(n)
	if len(ref.Packets) != n {
		t.Fatalf("generated %d packets, want %d", len(ref.Packets), n)
	}
	syn.SetParallelism(4)
	reseedGen(syn.models, cfg.Seed)
	if got := syn.Generate(n); !reflect.DeepEqual(ref, got) {
		t.Fatal("parallel packet trace diverges from serial")
	}

	var buf bytes.Buffer
	if err := syn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPacketSynthesizer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Generate(n); !reflect.DeepEqual(ref, got) {
		t.Fatal("loaded synthesizer trace diverges from the trained one")
	}
}

// TestDecodeTuplesMatchesPerSample: the batched tuple decode (one matmul per
// kind) must agree with the per-sample decodeMeta path on every field.
func TestDecodeTuplesMatchesPerSample(t *testing.T) {
	public := datasets.CAIDAChicago(1500, 41)
	cfg := testConfig()
	pe, err := newPortEmbedding(public, cfg.EmbedDim, cfg.EmbedEpochs, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	codec := newFlowCodec(cfg, pe, datasets.UGR16(200, 42))

	// Encode real tuples, perturb the embeddings slightly so the decode has
	// to do a genuine nearest-neighbour search, and duplicate some rows so
	// identical inputs must decode identically within one batch.
	real := datasets.UGR16(120, 43)
	var samples []dgan.Sample
	for _, r := range real.Records {
		meta := codec.encodeMeta(r.Tuple, trace.FlowTags{})
		for i := range meta {
			meta[i] += 0.003 * float64(i%5)
		}
		samples = append(samples, dgan.Sample{Meta: meta})
	}
	samples = append(samples, samples[:40]...)

	tuples := decodeTuples(codec.embed, codec.ipEmbed, samples)
	if len(tuples) != len(samples) {
		t.Fatalf("decoded %d tuples for %d samples", len(tuples), len(samples))
	}
	for i, s := range samples {
		if want := codec.decodeMeta(s.Meta); tuples[i] != want {
			t.Fatalf("sample %d: batched %+v != per-sample %+v", i, tuples[i], want)
		}
	}
	// Decode is deterministic: a second pass over the same rows agrees.
	again := decodeTuples(codec.embed, codec.ipEmbed, samples)
	if !reflect.DeepEqual(tuples, again) {
		t.Fatal("second decode pass diverges")
	}
}

// TestDecodeTuplesEveryKernelSet runs TestDecodeTuplesMatchesPerSample once
// per kernel set. The batched decode runs the assembly nearest-word kernel
// where the CPU has one, while the per-sample reference decodes one-row
// batches, which every set scores in Go; and the race detector cannot see
// the assembly's memory accesses.
func TestDecodeTuplesEveryKernelSet(t *testing.T) {
	mat.ForEachKernelSet(func(name string) { t.Run(name, TestDecodeTuplesMatchesPerSample) })
}

// TestDecodeEmptyKindFallbacks: a dictionary missing a whole word kind must
// decode to the explicit fallbacks (first known port / TCP), never fabricate
// vocabulary. Regression test for the found=false path.
func TestDecodeEmptyKindFallbacks(t *testing.T) {
	// Sentences with ports but no protocol words.
	sentences := [][]ip2vec.Word{
		{ip2vec.IPWord(1), ip2vec.PortWord(80)},
		{ip2vec.IPWord(2), ip2vec.PortWord(443)},
		{ip2vec.IPWord(3), ip2vec.PortWord(53)},
	}
	icfg := ip2vec.DefaultConfig()
	icfg.Dim = 4
	model, err := ip2vec.Train(sentences, icfg)
	if err != nil {
		t.Fatal(err)
	}
	pe := &portEmbedding{model: model, dim: icfg.Dim, ports: model.Words(ip2vec.KindPort)}
	pe.norms = make([]encoding.MinMax, icfg.Dim)
	for d := range pe.norms {
		pe.norms[d].Fit([]float64{-1, 1})
	}

	v := make([]float64, icfg.Dim)
	if got := pe.decodeProto(v); got != trace.TCP {
		t.Fatalf("empty proto vocabulary decoded to %v, want TCP", got)
	}
	protos := pe.decodeKindBatch(nil, new(mat.Matrix), ip2vec.KindProto, [][]float64{v, v}, uint32(trace.TCP))
	for _, p := range protos {
		if trace.Protocol(p) != trace.TCP {
			t.Fatalf("batched empty-proto decode = %v, want TCP", p)
		}
	}
	// Ports are present: decode resolves a real word.
	if got := pe.decodePort(v); got != 53 && got != 80 && got != 443 {
		t.Fatalf("port decode fabricated %d", got)
	}

	// No port vocabulary at all: the numeric fallback is port 0.
	empty := &portEmbedding{model: model, dim: icfg.Dim}
	if got := empty.fallbackPort(); got != 0 {
		t.Fatalf("empty port fallback = %d, want 0", got)
	}
}

func TestFullLots(t *testing.T) {
	if got := fullLots(100, 16); got != 64 {
		t.Fatalf("fullLots(100, 16) = %d, want 64", got)
	}
	if got := fullLots(1, 16); got != 16 {
		t.Fatalf("fullLots(1, 16) = %d, want a full lot", got)
	}
	if got := fullLots(32, 16); got%16 != 0 || got < 16 {
		t.Fatalf("fullLots(32, 16) = %d, want a lot multiple", got)
	}
}

// TestGenerateFreshMatchesFreshLoad: the stateless generate returns, from
// concurrent calls on one synthesizer whose own streams have already
// advanced, exactly the first Generate/GenerateLabeled of a freshly loaded
// copy, and leaves those streams where they were.
func TestGenerateFreshMatchesFreshLoad(t *testing.T) {
	cfg := condTestConfig()
	trained, err := TrainFlowSynthesizer(labeledTrace(300, 11), datasets.CAIDAChicago(1200, 12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := trained.Save(&saved); err != nil {
		t.Fatal(err)
	}
	load := func() *FlowSynthesizer {
		syn, err := LoadFlowSynthesizer(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return syn
	}

	const n = 150
	label := trained.LabelCatalog()[0]
	labels := []int{-1, int(label)}
	want := map[int]*trace.FlowTrace{-1: load().Generate(n)}
	if want[int(label)], err = load().GenerateLabeled(n, label); err != nil {
		t.Fatal(err)
	}
	second := load()
	second.Generate(n)
	wantNext := second.Generate(n)

	syn := load()
	syn.Generate(n) // advance the stateful streams past the fresh state
	var wg sync.WaitGroup
	got := make([]*trace.FlowTrace, 6)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = syn.GenerateFresh(n, labels[i%2])
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if w := want[labels[i%2]]; !reflect.DeepEqual(w, g) {
			t.Fatalf("call %d: GenerateFresh diverges from a fresh load's first generate", i)
		}
	}
	if g := syn.Generate(n); !reflect.DeepEqual(wantNext, g) {
		t.Fatal("GenerateFresh moved the synthesizer's own generation streams")
	}
	if _, err := syn.GenerateFresh(n, int(trace.NumLabels)); err == nil {
		t.Fatal("GenerateFresh accepted an out-of-range label")
	}
}

// TestPacketGenerateFreshMatchesFreshLoad mirrors the flow check for the
// packet pipeline.
func TestPacketGenerateFreshMatchesFreshLoad(t *testing.T) {
	trained, err := TrainPacketSynthesizer(datasets.CAIDA(600, 33), datasets.CAIDAChicago(1200, 34), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := trained.Save(&saved); err != nil {
		t.Fatal(err)
	}
	load := func() *PacketSynthesizer {
		syn, err := LoadPacketSynthesizer(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return syn
	}

	const n = 300
	want := load().Generate(n)
	second := load()
	second.Generate(n)
	wantNext := second.Generate(n)

	syn := load()
	syn.Generate(n)
	var wg sync.WaitGroup
	got := make([]*trace.PacketTrace, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = syn.GenerateFresh(n)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if !reflect.DeepEqual(want, g) {
			t.Fatalf("call %d: GenerateFresh diverges from a fresh load's first Generate", i)
		}
	}
	if g := syn.Generate(n); !reflect.DeepEqual(wantNext, g) {
		t.Fatal("GenerateFresh moved the synthesizer's own generation streams")
	}
}
