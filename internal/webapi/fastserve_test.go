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
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// TestFastServing exercises the fast-path serving stack end to end
// against one trained model (training dominates runtime, so the scenarios
// share a server) plus the generate endpoint's error paths.
func TestFastServing(t *testing.T) {
	dir := t.TempDir()
	ts, api, _ := startServerWithRegistry(t, dir)
	st := postJob(t, ts, tinyJob("netflow"))
	if final := waitDone(t, api, ts, st.ID); final.State != StateDone {
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

	t.Run("ConcurrentRequestsCoalesce", func(t *testing.T) {
		var mu sync.Mutex
		var batches []int
		release := make(chan struct{})
		first := make(chan struct{})
		var once sync.Once
		api.genHook = func(name string, batchSize int) {
			mu.Lock()
			batches = append(batches, batchSize)
			mu.Unlock()
			once.Do(func() { close(first) })
			<-release
		}
		defer func() { api.genHook = nil }()

		var wg sync.WaitGroup
		results := make([]int, 3)
		post := func(i int) {
			defer wg.Done()
			results[i], _ = generate(t, ts, model, GenerateRequest{Count: 40, Fast: true})
		}
		wg.Add(1)
		go post(0)
		<-first // request 0 is mid-batch; the scheduler slot is held
		wg.Add(2)
		go post(1)
		go post(2)
		// Wait until both stragglers are queued on the entry, then let every
		// batch through (the closed channel releases later hooks instantly).
		waitPending(t, api, model, 2)
		close(release)
		wg.Wait()

		for i, code := range results {
			if code != http.StatusOK {
				t.Fatalf("request %d: %d", i, code)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if len(batches) != 2 || batches[0] != 1 || batches[1] != 2 {
			t.Fatalf("batch sizes = %v, want [1 2] (requests 1+2 coalesced)", batches)
		}
	})

	t.Run("PanicFailsWaitersAndEvicts", func(t *testing.T) {
		var calls int
		var mu sync.Mutex
		entered := make(chan struct{})
		armed := make(chan struct{})
		api.genHook = func(name string, batchSize int) {
			mu.Lock()
			calls++
			n := calls
			mu.Unlock()
			if n == 1 {
				close(entered)
				<-armed // hold the batch until a second request queues behind it
				panic("synthetic fast-path failure")
			}
		}
		defer func() { api.genHook = nil }()

		var wg sync.WaitGroup
		codes := make([]int, 2)
		bodies := make([][]byte, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[0], bodies[0] = generate(t, ts, model, GenerateRequest{Count: 30, Fast: true})
		}()
		<-entered // request 0 is mid-batch and holds the scheduler slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[1], bodies[1] = generate(t, ts, model, GenerateRequest{Count: 30, Fast: true})
		}()
		waitPending(t, api, model, 1) // request 1 is queued behind the doomed batch
		close(armed)
		wg.Wait()

		for i := range codes {
			if codes[i] != http.StatusInternalServerError {
				t.Fatalf("request %d: %d %s, want 500", i, codes[i], bodies[i])
			}
			if !strings.Contains(string(bodies[i]), "panicked") {
				t.Fatalf("request %d body %s does not report the panic", i, bodies[i])
			}
		}
		// The poisoned snapshot was evicted: the next request decodes a
		// fresh one and succeeds (the hook no longer panics).
		code, body := generate(t, ts, model, GenerateRequest{Count: 30, Fast: true})
		if code != http.StatusOK {
			t.Fatalf("post-panic generate: %d %s", code, body)
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
		var batches atomic.Int32
		api.genHook = func(string, int) { batches.Add(1) }
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
		if n := batches.Load(); n != 0 {
			t.Fatalf("%d fast batches ran for rejected formats", n)
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

// waitPending polls until the model's fast entry has n queued waiters.
func waitPending(t *testing.T, api *Server, model string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if entry := api.lookupModel(model); entry != nil {
			entry.mu.Lock()
			queued := len(entry.pending)
			entry.mu.Unlock()
			if queued >= n {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("fast entry for %s never reached %d pending waiters", model, n)
}
