package webapi

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/conformance"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/trace"
)

// condModel trains one conditional flow synthesizer and shares its saved
// container across the conditional-serving tests (training dominates
// runtime, so every test feeds from the same model bytes).
var condModel struct {
	once    sync.Once
	ref     []byte // float64 flow container
	catalog []trace.Label
	err     error
}

func conditionalModelBytes(t *testing.T) (ref []byte, catalog []trace.Label) {
	t.Helper()
	condModel.once.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Chunks = 2
		cfg.MaxLen = 4
		cfg.SeedSteps = 60
		cfg.FineTuneSteps = 20
		cfg.EmbedEpochs = 2
		cfg.Hidden = 24
		cfg.Conditional = true
		real := datasets.GenerateFlows(datasets.FlowConfig{
			Name: "cond", Seed: 5, Records: 400,
			TimeSpan:  60_000_000,
			NumSrcIPs: 64, NumDstIPs: 48, IPZipf: 1.1,
			Ports:    []datasets.PortWeight{{Port: 443, Weight: 3}, {Port: 53, Weight: 1}},
			TCPShare: 0.7, UDPShare: 0.25,
			PktMu: 1.4, PktSigma: 1.2,
			MinBytesPerPkt: 40, MaxBytesPerPkt: 1500,
			DurPerPktUS:     800,
			MultiRecordProb: 0.1, MaxExtraRecords: 3,
			AttackFraction: 0.6,
			AttackMix:      []trace.Label{trace.DoS, trace.PortScan, trace.BruteForce},
		})
		syn, err := core.TrainFlowSynthesizer(real, datasets.CAIDAChicago(1200, 6), cfg)
		if err != nil {
			condModel.err = err
			return
		}
		var refBuf bytes.Buffer
		if err := syn.Save(&refBuf); err != nil {
			condModel.err = err
			return
		}
		condModel.ref = refBuf.Bytes()
		condModel.catalog = syn.LabelCatalog()
	})
	if condModel.err != nil {
		t.Fatal(condModel.err)
	}
	return condModel.ref, condModel.catalog
}

// TestConditionalGenerateEndToEnd is the serving acceptance test: one
// registry model trained with several scenario labels serves per-label
// POST /generate requests in both modes, whose fast conditional slices
// stay within the conformance thresholds of the default mode's, and whose
// IPFIX / NetFlow v9 egress round-trips byte-identically through the
// public decoders.
func TestConditionalGenerateEndToEnd(t *testing.T) {
	refBytes, catalog := conditionalModelBytes(t)
	if len(catalog) < 3 {
		t.Fatalf("catalog %v, want at least 3 trained scenarios", catalog)
	}
	dir := t.TempDir()
	ts, api, _ := startServerWithRegistry(t, dir)
	if info, err := api.registry().PutModel("cond", refBytes); err != nil || info.Kind != "flow" {
		t.Fatalf("store reference model: kind %q err %v", info.Kind, err)
	}

	// Per-label generation over the deterministic reference path: every
	// record of a pinned slice carries the requested scenario label.
	const perLabel = 1200
	ref := &trace.FlowTrace{}
	for _, label := range catalog {
		code, body := generate(t, ts, "cond", GenerateRequest{Count: perLabel, Label: label.String()})
		if code != http.StatusOK {
			t.Fatalf("labeled generate %v: %d %s", label, code, body)
		}
		slice, err := trace.ReadFlowCSV(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if len(slice.Records) != perLabel {
			t.Fatalf("label %v: %d records, want %d", label, len(slice.Records), perLabel)
		}
		for _, r := range slice.Records {
			if r.Label != label {
				t.Fatalf("requested %v but record carries %v", label, r.Label)
			}
		}
		ref.Records = append(ref.Records, slice.Records...)
	}
	ref.SortByStart()

	// The fast mode's conditional slices, served from the same stored
	// model, must conform to the reference path's at the same thresholds
	// as unconditional serving.
	m, err := conformance.ScenarioMatrix(ref, catalog, func(label trace.Label, n int) (*trace.FlowTrace, error) {
		code, body := generate(t, ts, "cond", GenerateRequest{Count: n, Label: label.String(), Fast: true})
		if code != http.StatusOK {
			return nil, fmt.Errorf("fast labeled generate %v: %d %s", label, code, body)
		}
		return trace.ReadFlowCSV(bytes.NewReader(body))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range m.Slices {
		if row.Skipped {
			t.Fatalf("scenario %v skipped with %d reference records", row.Label, row.RefRecords)
		}
	}
	if violations := m.Check(conformance.DefaultFlowThresholds); len(violations) > 0 {
		t.Fatalf("served conditional slices diverge from reference: %v", violations)
	}

	// Labeled IPFIX and NetFlow v9 egress round-trips byte-identically and
	// preserves the pinned scenario label.
	for _, tc := range []struct {
		format string
		read   func(io.Reader) (*trace.FlowTrace, error)
		write  func(io.Writer, *trace.FlowTrace) error
	}{
		{"ipfix", trace.ReadIPFIX, trace.WriteIPFIX},
		{"netflow9", trace.ReadNetFlowV9, trace.WriteNetFlowV9},
	} {
		code, body := generate(t, ts, "cond", GenerateRequest{Count: 500, Label: catalog[0].String(), Format: tc.format, Fast: true})
		if code != http.StatusOK {
			t.Fatalf("%s generate: %d %s", tc.format, code, body)
		}
		decoded, err := tc.read(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s decode: %v", tc.format, err)
		}
		if len(decoded.Records) != 500 {
			t.Fatalf("%s decoded %d records, want 500", tc.format, len(decoded.Records))
		}
		for _, r := range decoded.Records {
			if r.Label != catalog[0] {
				t.Fatalf("%s egress lost the label: got %v, want %v", tc.format, r.Label, catalog[0])
			}
		}
		var re bytes.Buffer
		if err := tc.write(&re, decoded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, re.Bytes()) {
			t.Fatalf("%s decode→re-encode is not byte-identical (%d vs %d bytes)", tc.format, len(body), re.Len())
		}
	}
}

// TestGenerateLabelValidation covers every 400 path of the label
// parameter: unknown names, packet models, and flow models trained
// without conditioning — on both the reference and fast paths.
func TestGenerateLabelValidation(t *testing.T) {
	refBytes, catalog := conditionalModelBytes(t)
	dir := t.TempDir()
	ts, api, _ := startServerWithRegistry(t, dir)
	reg := api.registry()
	if _, err := reg.PutModel("cond", refBytes); err != nil {
		t.Fatal(err)
	}
	// The packet-model rejection keys off the stored kind, which is
	// checked before any payload decode — a framed stub is enough.
	if _, err := reg.PutModel("pkt", container.Encode(container.KindPacketMdl, []byte("stub"))); err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Chunks = 1
	cfg.MaxLen = 3
	cfg.SeedSteps = 40
	cfg.FineTuneSteps = 20
	cfg.EmbedEpochs = 2
	cfg.Hidden = 24
	plain, err := core.TrainFlowSynthesizer(datasets.UGR16(200, 21), datasets.CAIDAChicago(800, 22), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var plainBuf bytes.Buffer
	if err := plain.Save(&plainBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PutModel("plain", plainBuf.Bytes()); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		model string
		req   GenerateRequest
		want  string
	}{
		{"UnknownLabel", "cond", GenerateRequest{Count: 10, Label: "zombie"}, "unknown scenario label"},
		{"UnknownLabelFast", "cond", GenerateRequest{Count: 10, Label: "zombie", Fast: true}, "unknown scenario label"},
		{"LabelOnPacketModel", "pkt", GenerateRequest{Count: 10, Label: "dos"}, "flow-only"},
		{"LabelOnUnconditional", "plain", GenerateRequest{Count: 10, Label: "dos"}, "scenario conditioning"},
		{"LabelOnUnconditionalFast", "plain", GenerateRequest{Count: 10, Label: "dos", Fast: true}, "scenario conditioning"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body := generate(t, ts, tc.model, tc.req)
			if code != http.StatusBadRequest {
				t.Fatalf("%d %s, want 400", code, body)
			}
			if !bytes.Contains(body, []byte(tc.want)) {
				t.Fatalf("error %s does not mention %q", body, tc.want)
			}
		})
	}

	// Valid labels and the unlabeled mixture still serve.
	if code, body := generate(t, ts, "cond", GenerateRequest{Count: 40, Label: catalog[0].String()}); code != http.StatusOK {
		t.Fatalf("valid label rejected: %d %s", code, body)
	}
	if code, body := generate(t, ts, "cond", GenerateRequest{Count: 40}); code != http.StatusOK {
		t.Fatalf("unlabeled mixture rejected: %d %s", code, body)
	}
}

// TestSweepFailsOrFinishesFastRequests is the sweep-race regression: a
// registry sweep that drops a model while the server holds its decoded
// entry must leave every concurrent request either complete or a clean
// 404 — never a partial response or a hang. In the fast mode the
// in-flight generate (held open by the hook) finishes from the in-memory
// snapshot; the request waiting behind it finds the entry retired,
// retries, and sees the deletion. In the default mode a request that
// holds the entry but has not started generating when the sweep retires
// it never runs on it: it retries and sees the deletion too.
func TestSweepFailsOrFinishesFastRequests(t *testing.T) {
	refBytes, _ := conditionalModelBytes(t)
	dir := t.TempDir()
	ts, api, _ := startServerWithRegistry(t, dir)
	if _, err := api.registry().PutModel("doomed", refBytes); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	api.genHook = func(string) {
		once.Do(func() { close(entered) })
		<-release
	}
	defer func() { api.genHook = nil }()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	bodies := make([][]byte, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		codes[0], bodies[0] = generate(t, ts, "doomed", GenerateRequest{Count: 30, Fast: true})
	}()
	<-entered // request 0 holds the entry's fast lock
	hits := telFastCacheHits.Value()
	wg.Add(1)
	go func() {
		defer wg.Done()
		codes[1], bodies[1] = generate(t, ts, "doomed", GenerateRequest{Count: 30, Fast: true})
	}()
	waitFastHit(t, hits) // request 1 queues behind the held generate

	if err := deleteModel(api.registry(), "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := api.SweepRegistry(); err != nil {
		t.Fatal(err)
	}
	close(release)
	wg.Wait()

	if codes[0] != http.StatusOK {
		t.Fatalf("in-flight request: %d %s, want 200", codes[0], bodies[0])
	}
	if lines := bytes.Count(bodies[0], []byte("\n")); lines != 31 { // header + 30 records
		t.Fatalf("in-flight request served %d CSV lines, want 31 (a complete trace)", lines)
	}
	if codes[1] != http.StatusNotFound {
		t.Fatalf("waiting request: %d %s, want 404 after retry", codes[1], bodies[1])
	}
	if api.lookupModel("doomed") != nil {
		t.Fatal("swept snapshot still cached")
	}

	// Default mode, one request held between entry lookup and generation.
	if _, err := api.registry().PutModel("doomed", refBytes); err != nil {
		t.Fatal(err)
	}
	req := GenerateRequest{Count: 30, Format: "csv"}
	want := freshBody(t, refBytes, trace.KindNetFlow, req)
	if code, body := generate(t, ts, "doomed", req); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("default-mode warm-up: %d %s", code, body)
	}
	held := make(chan struct{})
	resume := make(chan struct{})
	api.genHook = func(string) {
		close(held)
		<-resume
	}
	// The warm-up's reply is cached and would never reach genHook, so the
	// held request asks for a count the warm-up did not.
	uncached := req
	uncached.Count++
	var code int
	var body []byte
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, body = generate(t, ts, "doomed", uncached)
	}()
	<-held
	api.genHook = nil
	if err := deleteModel(api.registry(), "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := api.SweepRegistry(); err != nil {
		t.Fatal(err)
	}
	close(resume)
	wg.Wait()
	if code != http.StatusNotFound {
		t.Fatalf("default-mode request on a swept entry: %d %.200s, want 404 after retry", code, body)
	}

	// Default mode under a storm of deletes, re-stores and sweeps: every
	// reply is the model's complete trace or a 404.
	errs := make(chan string, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := generate(t, ts, "doomed", req)
			if code == http.StatusOK && !bytes.Equal(body, want) || code != http.StatusOK && code != http.StatusNotFound {
				errs <- fmt.Sprintf("%d %.200s", code, body)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		if _, err := api.registry().PutModel("doomed", refBytes); err != nil {
			t.Fatal(err)
		}
		if err := deleteModel(api.registry(), "doomed"); err != nil {
			t.Fatal(err)
		}
		if _, err := api.SweepRegistry(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("default-mode request racing sweeps: %s", e)
	}
	// A request that decoded the model just before the last delete may
	// have cached it after the last sweep; the next request's 404 drops it.
	if code, body := generate(t, ts, "doomed", req); code != http.StatusNotFound {
		t.Fatalf("after the storm: %d %.200s, want 404", code, body)
	}
	if api.lookupModel("doomed") != nil {
		t.Fatal("deleted model still cached")
	}
}

// TestStoreDownloadNetFlowV9AndIPFIX extends the encoded-download matrix
// to the template-based formats: store-backed jobs stream both, the
// artifact cache serves identical bytes, and the streams match the
// buffered encoders over the materialized trace.
func TestStoreDownloadNetFlowV9AndIPFIX(t *testing.T) {
	dir := t.TempDir()
	ft := queryTrace(600)
	seedStoreJob(t, dir, "job-1", ft)
	ts, _, _ := startServerWithRegistry(t, dir)

	for _, tc := range []struct {
		format string
		write  func(io.Writer, *trace.FlowTrace) error
		read   func(io.Reader) (*trace.FlowTrace, error)
	}{
		{"netflow9", trace.WriteNetFlowV9, trace.ReadNetFlowV9},
		{"ipfix", trace.WriteIPFIX, trace.ReadIPFIX},
	} {
		var want bytes.Buffer
		if err := tc.write(&want, ft); err != nil {
			t.Fatal(err)
		}
		code, got := fetch(t, ts, "/api/v1/jobs/job-1/trace?format="+tc.format)
		if code != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("streamed %s drifted (code %d, %d vs %d bytes)", tc.format, code, len(got), want.Len())
		}
		// Second download serves identical bytes from the artifact LRU.
		code, got2 := fetch(t, ts, "/api/v1/jobs/job-1/trace?format="+tc.format)
		if code != http.StatusOK || !bytes.Equal(got2, got) {
			t.Fatalf("cached %s download differs from streamed download", tc.format)
		}
		// The download decodes through the public reader with labels intact.
		decoded, err := tc.read(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("%s decode: %v", tc.format, err)
		}
		if len(decoded.Records) != len(ft.Records) {
			t.Fatalf("%s decoded %d records, want %d", tc.format, len(decoded.Records), len(ft.Records))
		}
	}
}
