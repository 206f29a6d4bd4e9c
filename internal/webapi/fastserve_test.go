package webapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestFastServing exercises the fast-path serving stack end to end
// against one trained model (training dominates runtime, so the scenarios
// share a server) plus the generate endpoint's error paths.
func TestFastServing(t *testing.T) {
	dir := t.TempDir()
	ts, api, _ := startServerWithRegistry(t, dir)
	st := postJob(t, ts, tinyJob("netflow"))
	if final := waitDone(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("training job failed: %s", final.Error)
	}
	waitPersisted(t, api, st.ID)
	model := st.ID

	t.Run("FastGenerateServes", func(t *testing.T) {
		for i := 0; i < 2; i++ { // second hit serves from the LRU
			code, body := generate(t, ts, model, GenerateRequest{Count: 80, Format: "csv", Fast: true})
			if code != http.StatusOK {
				t.Fatalf("fast generate (call %d): %d %s", i, code, body)
			}
			if lines := bytes.Count(body, []byte("\n")); lines != 81 { // header + 80 records
				t.Fatalf("call %d: got %d CSV lines, want 81", i, lines)
			}
		}
	})

	t.Run("FirstReplyDoesNotWaitForLater", func(t *testing.T) {
		// Request 1 queues behind request 0's generate, and its hook
		// holds it until request 0's reply has arrived. If request 0's
		// handler ran request 1's generate before replying, that reply
		// would wait on the hook until it timed out.
		entered, release, replied := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var calls atomic.Int32
		var timedOut atomic.Bool
		api.genHook = func(string) {
			switch calls.Add(1) {
			case 1:
				close(entered)
				<-release
			case 2:
				select {
				case <-replied:
				case <-time.After(10 * time.Second):
					timedOut.Store(true)
				}
			}
		}
		defer func() { api.genHook = nil }()

		var wg sync.WaitGroup
		codes := make([]int, 2)
		bodies := make([][]byte, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			codes[0], bodies[0] = generate(t, ts, model, GenerateRequest{Count: 40, Fast: true})
			close(replied)
		}()
		<-entered // request 0 holds the entry's fast lock
		hits := telFastCacheHits.Value()
		go func() {
			defer wg.Done()
			codes[1], bodies[1] = generate(t, ts, model, GenerateRequest{Count: 40, Fast: true})
		}()
		waitFastHit(t, hits) // request 1 queues behind request 0
		close(release)
		wg.Wait()

		for i, code := range codes {
			if code != http.StatusOK {
				t.Fatalf("request %d: %d %s", i, code, bodies[i])
			}
		}
		if timedOut.Load() {
			t.Fatal("request 0's reply waited for request 1's generate")
		}
	})

	t.Run("PanicFailsWaitersAndEvicts", func(t *testing.T) {
		// Request 0's generate panics while request 1 waits behind it:
		// request 0 fails, the poisoned entry is retired, and request 1
		// retries on a fresh decode.
		entered, armed := make(chan struct{}), make(chan struct{})
		var calls atomic.Int32
		api.genHook = func(string) {
			if calls.Add(1) == 1 {
				close(entered)
				<-armed
				panic("synthetic fast-path failure")
			}
		}
		defer func() { api.genHook = nil }()

		var wg sync.WaitGroup
		codes := make([]int, 2)
		bodies := make([][]byte, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			codes[0], bodies[0] = generate(t, ts, model, GenerateRequest{Count: 30, Fast: true})
		}()
		<-entered // request 0 holds the entry's fast lock
		poisoned := api.lookupModel(model)
		hits, panics := telFastCacheHits.Value(), telFastPanics.Value()
		go func() {
			defer wg.Done()
			codes[1], bodies[1] = generate(t, ts, model, GenerateRequest{Count: 30, Fast: true})
		}()
		waitFastHit(t, hits) // request 1 queues behind the doomed generate
		close(armed)
		wg.Wait()

		if codes[0] != http.StatusInternalServerError || !strings.Contains(string(bodies[0]), "panicked") {
			t.Fatalf("panicking request: %d %s, want a 500 reporting the panic", codes[0], bodies[0])
		}
		if codes[1] != http.StatusOK {
			t.Fatalf("request queued behind the panic: %d %s, want 200 on a fresh decode", codes[1], bodies[1])
		}
		if n := telFastPanics.Value() - panics; n != 1 {
			t.Fatalf("%d panics counted, want 1", n)
		}
		if !poisoned.dead.Load() {
			t.Fatal("the panicked entry was not retired")
		}
		if api.lookupModel(model) == poisoned {
			t.Fatal("the panicked entry is still cached")
		}
	})

	t.Run("UnknownModel404", func(t *testing.T) {
		for _, fast := range []bool{false, true} {
			code, body := generate(t, ts, "no-such-model", GenerateRequest{Count: 10, Fast: fast})
			if code != http.StatusNotFound {
				t.Fatalf("fast=%v: %d %s, want 404", fast, code, body)
			}
		}
	})

	t.Run("CountValidation", func(t *testing.T) {
		code, body := generate(t, ts, model, GenerateRequest{Count: 100_001})
		if code != http.StatusBadRequest {
			t.Fatalf("oversized count: %d %s, want 400", code, body)
		}
		// A count that overflows int64 fails JSON decoding, not generation.
		resp, err := http.Post(ts.URL+"/api/v1/models/"+model+"/generate",
			"application/json", strings.NewReader(`{"count": 1e300}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("overflow count: %d, want 400", resp.StatusCode)
		}
		// Non-positive counts fall back to the documented default of 1000.
		code, body = generate(t, ts, model, GenerateRequest{Count: -3, Fast: true})
		if code != http.StatusOK {
			t.Fatalf("negative count: %d %s", code, body)
		}
		if lines := bytes.Count(body, []byte("\n")); lines != 1001 {
			t.Fatalf("negative count produced %d CSV lines, want 1001 (default 1000)", lines)
		}
	})

	t.Run("FormatCheckedBeforeGenerating", func(t *testing.T) {
		// A format the flow model cannot carry, or no format at all, is a
		// 400 before any generation runs, on either serving path.
		genPhase := telemetry.Default.Timer("core.generate.phase")
		var gens atomic.Int32
		api.genHook = func(string) { gens.Add(1) }
		defer func() { api.genHook = nil }()
		before := genPhase.Count()
		for _, format := range []string{"pcap", "xml"} {
			for _, fast := range []bool{false, true} {
				code, body := generate(t, ts, model, GenerateRequest{Count: 50000, Format: format, Fast: fast})
				if code != http.StatusBadRequest {
					t.Fatalf("format %q fast=%v: %d %s, want 400", format, fast, code, body)
				}
			}
		}
		if n := gens.Load(); n != 0 {
			t.Fatalf("%d generates ran for rejected formats", n)
		}
		if n := genPhase.Count() - before; n != 0 {
			t.Fatalf("%d generate phases ran for rejected formats", n)
		}
	})

	t.Run("OversizedBodyRejected", func(t *testing.T) {
		huge := `{"count": 10, "pad": "` + strings.Repeat("x", maxGenerateBody+1024) + `"}`
		resp, err := http.Post(ts.URL+"/api/v1/models/"+model+"/generate",
			"application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("oversized body: %d, want 400", resp.StatusCode)
		}
	})

	t.Run("GenerateRacesSweep", func(t *testing.T) {
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(fast bool) {
				defer wg.Done()
				code, body := generate(t, ts, model, GenerateRequest{Count: 25, Fast: fast})
				if code != http.StatusOK {
					errs <- string(body)
				}
			}(i%2 == 0)
		}
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := api.registry().Sweep(); err != nil {
					errs <- err.Error()
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("generate racing sweep failed: %s", e)
		}
	})
}

// TestFastRepliesFollowOneSnapshotStream: a model version's fast replies
// come from one snapshot, one request at a time. Two concurrent requests
// on a cold cache decode the model twice but share the entry insertModel
// keeps, so they get the snapshot's first two generates in some order;
// serial plain and labeled CSV requests then continue the same stream,
// byte for byte, as consecutive Generate and GenerateLabeled calls on
// Fast() of the stored model loaded fresh.
func TestFastRepliesFollowOneSnapshotStream(t *testing.T) {
	framed, catalog := conditionalModelBytes(t)
	ts, api, _ := startServerWithRegistry(t, t.TempDir())
	if _, err := api.registry().PutModel("m", framed); err != nil {
		t.Fatal(err)
	}
	syn, err := core.LoadFlowSynthesizer(bytes.NewReader(framed))
	if err != nil {
		t.Fatal(err)
	}
	snap := syn.Fast()
	csv := func(src *trace.FlowTrace) []byte { return encodeBody(t, src, trace.KindNetFlow, "csv") }

	cold := GenerateRequest{Count: 35, Format: "csv", Fast: true}
	first, second := csv(snap.Generate(cold.Count)), csv(snap.Generate(cold.Count))
	var wg sync.WaitGroup
	bodies := make([][]byte, 2)
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var code int
			if code, bodies[i] = generate(t, ts, "m", cold); code != http.StatusOK {
				t.Errorf("cold request %d: %d %s", i, code, bodies[i])
			}
		}()
	}
	wg.Wait()
	if !(bytes.Equal(bodies[0], first) && bytes.Equal(bodies[1], second)) &&
		!(bytes.Equal(bodies[0], second) && bytes.Equal(bodies[1], first)) {
		t.Fatal("concurrent cold requests are not the snapshot's first two generates")
	}

	for i, req := range []GenerateRequest{
		{Count: 40},
		{Count: 25, Label: catalog[0].String()},
		{Count: 60},
		{Count: 30, Label: catalog[len(catalog)-1].String()},
	} {
		req.Format, req.Fast = "csv", true
		var want *trace.FlowTrace
		if label, ok := trace.ParseLabel(req.Label); ok {
			if want, err = snap.GenerateLabeled(req.Count, label); err != nil {
				t.Fatal(err)
			}
		} else {
			want = snap.Generate(req.Count)
		}
		code, body := generate(t, ts, "m", req)
		if code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, code, body)
		}
		if !bytes.Equal(body, csv(want)) {
			t.Fatalf("request %d (%+v) is not the snapshot's next generate", i, req)
		}
	}
}

// TestConcurrentFastRequestsGetTheirCountAndLabel: concurrent fast
// requests with mixed counts and labels on one conditional model each get
// exactly their count, and a labeled request's every record carries its
// label.
func TestConcurrentFastRequestsGetTheirCountAndLabel(t *testing.T) {
	framed, catalog := conditionalModelBytes(t)
	ts, api, _ := startServerWithRegistry(t, t.TempDir())
	if _, err := api.registry().PutModel("m", framed); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		req := GenerateRequest{Count: 10 + 23*i, Format: "csv", Fast: true}
		if i%3 != 0 {
			req.Label = catalog[i%len(catalog)].String()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := generate(t, ts, "m", req)
			if code != http.StatusOK {
				t.Errorf("%+v: %d %s", req, code, body)
				return
			}
			got, err := trace.ReadFlowCSV(bytes.NewReader(body))
			if err != nil {
				t.Errorf("%+v: %v", req, err)
				return
			}
			if len(got.Records) != req.Count {
				t.Errorf("%+v: %d records", req, len(got.Records))
			}
			for _, r := range got.Records {
				if req.Label != "" && r.Label.String() != req.Label {
					t.Errorf("%+v: a record carries label %v", req, r.Label)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRetiredFastKindsStayUnsupported: a registry written before the
// stored float32 snapshot format was retired may still hold flow-fast
// (kind 5) and packet-fast (kind 6) models. They are intact, so a sweep
// keeps them and the model list shows them, but generating from one in
// either mode is a clean unsupported-kind error, and storing a new one is
// refused.
func TestRetiredFastKindsStayUnsupported(t *testing.T) {
	dir := t.TempDir()
	legacy := []struct {
		name, kind string
		tag        container.Kind
	}{
		{"old-flow", "flow-fast", container.Kind(5)},
		{"old-pkt", "packet-fast", container.Kind(6)},
	}
	if err := os.MkdirAll(filepath.Join(dir, "models"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, m := range legacy {
		payload := []byte("float32 snapshot of " + m.name)
		framed := container.Encode(m.tag, payload)
		manifest, err := json.Marshal(registry.ModelInfo{
			Name: m.name, Kind: m.kind,
			Checksum: crc32.ChecksumIEEE(payload), Size: int64(len(framed)),
			SavedAt: "2024-01-01T00:00:00Z",
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "models", m.name+".mdl"), framed, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "models", m.name+".json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ts, api, stats := startServerWithRegistry(t, dir)
	if stats.Swept != 0 || stats.Corrupt != 0 {
		t.Fatalf("boot sweep removed %d entries (%d corrupt), want 0", stats.Swept, stats.Corrupt)
	}
	rep, err := api.SweepRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 0 || rep.Corrupt != 0 {
		t.Fatalf("sweep removed %v (%d corrupt), want nothing", rep.Removed, rep.Corrupt)
	}

	code, body := fetch(t, ts, "/api/v1/models")
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	var list struct {
		Models []registry.ModelInfo `json:"models"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != len(legacy) {
		t.Fatalf("models = %+v, want both legacy models listed", list.Models)
	}

	for i, m := range legacy {
		if got := list.Models[i]; got.Name != m.name || got.Kind != m.kind {
			t.Fatalf("listed %+v, want %s of kind %s", got, m.name, m.kind)
		}
		if _, _, err := api.loadModelEntry(m.name); !errors.Is(err, errUnsupportedKind) {
			t.Fatalf("%s: load error %v, want errUnsupportedKind", m.name, err)
		}
		for _, fast := range []bool{false, true} {
			code, body := generate(t, ts, m.name, GenerateRequest{Count: 10, Fast: fast})
			if code != http.StatusInternalServerError {
				t.Fatalf("%s fast=%v: %d %s, want 500", m.name, fast, code, body)
			}
			if !bytes.Contains(body, []byte("unsupported model kind")) || !bytes.Contains(body, []byte(m.kind)) {
				t.Fatalf("%s fast=%v: error %s does not name the unsupported kind %q", m.name, fast, body, m.kind)
			}
		}
		framed, _, err := api.registry().ModelBytes(m.name)
		if err != nil {
			t.Fatalf("%s was not kept intact: %v", m.name, err)
		}
		if _, err := api.registry().PutModel(m.name+"-copy", framed); err == nil {
			t.Fatalf("PutModel accepted a %s frame", m.kind)
		}
	}
	if rep, err := api.SweepRegistry(); err != nil || len(rep.Removed) != 0 {
		t.Fatalf("sweep after generate: removed %v, err %v", rep.Removed, err)
	}
}

// waitFastHit waits until a fast request has found its model's cached
// entry since the fast cache-hit counter read hits, then gives that
// request a moment to queue on the entry's fast lock.
func waitFastHit(t *testing.T, hits int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for telFastCacheHits.Value() == hits {
		if time.Now().After(deadline) {
			t.Fatal("no fast request reached the cached entry")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
}
