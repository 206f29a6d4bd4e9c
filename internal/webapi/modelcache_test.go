package webapi

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/registry"
	"repro/internal/trace"
)

// deleteModel removes a stored model's files the way an operator would,
// manifest first; the registry itself has no delete operation.
func deleteModel(reg *registry.Registry, name string) error {
	for _, ext := range []string{".json", ".mdl"} {
		if err := os.Remove(filepath.Join(reg.Dir(), "models", name+ext)); err != nil {
			return err
		}
	}
	return nil
}

// smallModelBytes trains and saves a small reference model of the given
// trace kind; distinct seeds give distinct weights.
func smallModelBytes(t *testing.T, kind trace.Kind, seed int64) []byte {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Chunks = 2
	cfg.MaxLen = 3
	cfg.SeedSteps = 40
	cfg.FineTuneSteps = 20
	cfg.EmbedEpochs = 2
	cfg.Hidden = 24
	cfg.Seed = seed
	var buf bytes.Buffer
	var err error
	if kind == trace.KindPCAP {
		var syn *core.PacketSynthesizer
		if syn, err = core.TrainPacketSynthesizer(datasets.CAIDA(400, seed), datasets.CAIDAChicago(800, seed+1), cfg); err == nil {
			err = syn.Save(&buf)
		}
	} else {
		var syn *core.FlowSynthesizer
		if syn, err = core.TrainFlowSynthesizer(datasets.UGR16(200, seed), datasets.CAIDAChicago(800, seed+1), cfg); err == nil {
			err = syn.Save(&buf)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// freshBody is the reply a stateless server owes a default-mode request:
// a freshly loaded synthesizer's first generate, encoded in format.
func freshBody(t *testing.T, framed []byte, kind trace.Kind, req GenerateRequest) []byte {
	t.Helper()
	var src trace.Source
	if kind == trace.KindPCAP {
		syn, err := core.LoadPacketSynthesizer(bytes.NewReader(framed))
		if err != nil {
			t.Fatal(err)
		}
		src = syn.Generate(req.Count)
	} else {
		syn, err := core.LoadFlowSynthesizer(bytes.NewReader(framed))
		if err != nil {
			t.Fatal(err)
		}
		if req.Label == "" {
			src = syn.Generate(req.Count)
		} else {
			label, _ := trace.ParseLabel(req.Label)
			if src, err = syn.GenerateLabeled(req.Count, label); err != nil {
				t.Fatal(err)
			}
		}
	}
	return encodeBody(t, src, kind, req.Format)
}

func encodeBody(t *testing.T, src trace.Source, kind trace.Kind, format string) []byte {
	t.Helper()
	f, err := trace.LookupFormat(format, kind)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf, src); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentDefaultGeneratesMatchFreshLoads: concurrent default-mode
// requests served from the one cached entry per model — flow and packet,
// labeled and unlabeled, every format — each return exactly the bytes a
// freshly loaded synthesizer's first generate encodes to.
func TestConcurrentDefaultGeneratesMatchFreshLoads(t *testing.T) {
	condBytes, catalog := conditionalModelBytes(t)
	pktBytes := smallModelBytes(t, trace.KindPCAP, 7)
	ts, api, _ := startServerWithRegistry(t, t.TempDir())
	for name, framed := range map[string][]byte{"cond": condBytes, "pkt": pktBytes} {
		if _, err := api.registry().PutModel(name, framed); err != nil {
			t.Fatal(err)
		}
	}

	type call struct {
		model string
		req   GenerateRequest
	}
	var calls []call
	for i, format := range []string{"csv", "netflow5", "netflow9", "ipfix"} {
		calls = append(calls,
			call{"cond", GenerateRequest{Count: 60 + 7*i, Format: format}},
			call{"cond", GenerateRequest{Count: 45, Format: format, Label: catalog[i%len(catalog)].String()}})
	}
	for _, format := range []string{"csv", "pcap"} {
		calls = append(calls, call{"pkt", GenerateRequest{Count: 90, Format: format}})
	}
	calls = append(calls, calls...) // every request twice, concurrently

	want := make([][]byte, len(calls))
	for i, c := range calls {
		framed, kind := condBytes, trace.KindNetFlow
		if c.model == "pkt" {
			framed, kind = pktBytes, trace.KindPCAP
		}
		want[i] = freshBody(t, framed, kind, c.req)
	}

	var wg sync.WaitGroup
	errs := make(chan string, len(calls))
	for i, c := range calls {
		wg.Add(1)
		go func(i int, c call) {
			defer wg.Done()
			code, body := generate(t, ts, c.model, c.req)
			if code != http.StatusOK {
				errs <- fmt.Sprintf("%s %+v: %d %s", c.model, c.req, code, body)
			} else if !bytes.Equal(body, want[i]) {
				errs <- fmt.Sprintf("%s %+v: body differs from a fresh load's first generate", c.model, c.req)
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestOverwrittenModelReloads: re-storing a model name with different
// weights changes the next response in both modes (the cached entry is
// keyed by the manifest version, not just the name), and deleting it
// makes the next request a 404.
func TestOverwrittenModelReloads(t *testing.T) {
	a, b := smallModelBytes(t, trace.KindNetFlow, 3), smallModelBytes(t, trace.KindNetFlow, 4)
	ts, api, _ := startServerWithRegistry(t, t.TempDir())
	reg := api.registry()

	exact := GenerateRequest{Count: 40, Format: "csv"}
	fast := GenerateRequest{Count: 40, Format: "csv", Fast: true}
	// A fresh entry's first fast request runs on a fresh snapshot, so a
	// single fast request after a (re)load is predictable too.
	fastBody := func(framed []byte) []byte {
		syn, err := core.LoadFlowSynthesizer(bytes.NewReader(framed))
		if err != nil {
			t.Fatal(err)
		}
		return encodeBody(t, syn.Fast().Generate(fast.Count), trace.KindNetFlow, "csv")
	}
	check := func(step string, req GenerateRequest, want []byte) {
		t.Helper()
		code, body := generate(t, ts, "m", req)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", step, code, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: reply is not the stored model's output", step)
		}
	}

	put := func(framed []byte) {
		t.Helper()
		if _, err := reg.PutModel("m", framed); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(fastBody(a), fastBody(b)) {
		t.Fatal("the two models generate identical traces; the test cannot tell them apart")
	}
	put(a)
	check("a, default", exact, freshBody(t, a, trace.KindNetFlow, exact))
	check("a, fast", fast, fastBody(a))
	put(b)
	check("b, default", exact, freshBody(t, b, trace.KindNetFlow, exact))
	check("b, fast", fast, fastBody(b))
	put(a)
	check("a again, fast", fast, fastBody(a))
	check("a again, default", exact, freshBody(t, a, trace.KindNetFlow, exact))

	if err := deleteModel(reg, "m"); err != nil {
		t.Fatal(err)
	}
	for _, req := range []GenerateRequest{exact, fast} {
		if code, body := generate(t, ts, "m", req); code != http.StatusNotFound {
			t.Fatalf("fast=%v after delete: %d %s, want 404", req.Fast, code, body)
		}
	}
	if api.lookupModel("m") != nil {
		t.Fatal("deleted model still cached")
	}
}

// TestArtifactLRUServesRepeatGenerates: a default-mode reply is cached in
// the artifact LRU under its model version, count, label and format, so an
// identical repeat is served without generating. Any other request
// generates, fast replies are never cached, a negative budget disables
// the cache, and no reply outlives its model.
func TestArtifactLRUServesRepeatGenerates(t *testing.T) {
	framed, catalog := conditionalModelBytes(t)
	var gens atomic.Int32
	start := func() (*httptest.Server, *Server) {
		ts, api, _ := startServerWithRegistry(t, t.TempDir())
		if _, err := api.registry().PutModel("m", framed); err != nil {
			t.Fatal(err)
		}
		api.genHook = func(string) { gens.Add(1) }
		return ts, api
	}
	// serve posts req and reports the reply and whether it generated.
	serve := func(ts *httptest.Server, req GenerateRequest) ([]byte, bool) {
		t.Helper()
		before := gens.Load()
		code, body := generate(t, ts, "m", req)
		if code != http.StatusOK {
			t.Fatalf("%+v: %d %s", req, code, body)
		}
		return body, gens.Load() != before
	}
	replies := func(api *Server) int {
		api.artMu.Lock()
		defer api.artMu.Unlock()
		n := 0
		for _, el := range api.artCache {
			if el.Value.(*artifact).model == "m" {
				n++
			}
		}
		return n
	}

	ts, api := start()
	base := GenerateRequest{Count: 40, Format: "csv"}
	first, generated := serve(ts, base)
	if !generated {
		t.Fatal("first request did not generate")
	}
	if !bytes.Equal(first, freshBody(t, framed, trace.KindNetFlow, base)) {
		t.Fatal("first reply is not a fresh load's first generate")
	}
	hits := telArtifactHits.Value()
	again, generated := serve(ts, base)
	if generated || telArtifactHits.Value() == hits {
		t.Fatal("identical repeat was not served from the artifact LRU")
	}
	if !bytes.Equal(again, first) {
		t.Fatal("cached reply differs from the generated one")
	}

	count, label, format := base, base, base
	count.Count++
	label.Label = catalog[0].String()
	format.Format = "netflow5"
	fast := base
	fast.Fast = true
	for _, req := range []GenerateRequest{count, label, format, fast, fast} {
		if _, generated := serve(ts, req); !generated {
			t.Fatalf("%+v was served from another request's cached reply", req)
		}
	}

	// A sweep keeps the replies of a live model; after deleteModel it
	// drops them all.
	if _, err := api.SweepRegistry(); err != nil {
		t.Fatal(err)
	}
	if _, generated := serve(ts, base); generated {
		t.Fatal("sweep dropped a live model's cached reply")
	}
	if err := deleteModel(api.registry(), "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := api.SweepRegistry(); err != nil {
		t.Fatal(err)
	}
	if n := replies(api); n != 0 {
		t.Fatalf("%d replies of a deleted model survived the sweep", n)
	}

	// A 404 drops the model's replies too.
	if _, err := api.registry().PutModel("m", framed); err != nil {
		t.Fatal(err)
	}
	serve(ts, base)
	if replies(api) == 0 {
		t.Fatal("reply of the re-stored model was not cached")
	}
	if err := deleteModel(api.registry(), "m"); err != nil {
		t.Fatal(err)
	}
	if code, body := generate(t, ts, "m", base); code != http.StatusNotFound {
		t.Fatalf("after delete: %d %.200s, want 404", code, body)
	}
	if n := replies(api); n != 0 {
		t.Fatalf("%d replies of a deleted model survived its 404", n)
	}

	// A negative budget disables reply caching: every request generates.
	ts, api = start()
	api.ArtifactCacheBytes = -1
	for i := 0; i < 2; i++ {
		if _, generated := serve(ts, base); !generated {
			t.Fatalf("request %d was served from a disabled cache", i)
		}
	}
	if n := replies(api); n != 0 {
		t.Fatalf("disabled cache holds %d replies", n)
	}
}
