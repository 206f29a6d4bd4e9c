package webapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestPanickingJobLeavesServerResponsive: a panic inside the job body must
// not take down the process, leak the inflight slot, or leave s.mu held —
// every endpoint must keep answering and a follow-up job must still run.
func TestPanickingJobLeavesServerResponsive(t *testing.T) {
	ts, api := startServer(t)
	api.runHook = func(id string) {
		if id == "job-1" {
			panic("injected failure")
		}
	}
	st := postJob(t, ts, tinyJob("netflow"))
	final := waitDone(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("panicked job state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "panicked") {
		t.Fatalf("error = %q, want a panic report", final.Error)
	}

	// Every endpoint still answers (a held lock would hang these).
	for _, path := range []string{"/healthz", "/api/v1/jobs", "/api/v1/jobs/" + st.ID, "/metrics"} {
		done := make(chan int, 1)
		go func() {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				done <- -1
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		select {
		case code := <-done:
			if code != http.StatusOK {
				t.Fatalf("GET %s after panic: %d", path, code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("GET %s hung after panic — lock left held", path)
		}
	}

	// The inflight slot was released: a second job trains to completion.
	st2 := postJob(t, ts, tinyJob("netflow"))
	if final2 := waitDone(t, ts, st2.ID); final2.State != StateDone {
		t.Fatalf("follow-up job = %s (%s)", final2.State, final2.Error)
	}
}

// TestMetricsEndpoint: GET /metrics serves the registry snapshot as JSON
// and as Prometheus text with ?format=prom.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := startServer(t)
	st := postJob(t, ts, tinyJob("netflow"))
	if final := waitDone(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("job failed: %s", final.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["webapi.jobs.submitted"] < 1 || snap.Counters["webapi.jobs.done"] < 1 {
		t.Fatalf("job counters missing: %+v", snap.Counters)
	}
	if snap.Counters["dgan.generate.lots"] < 1 {
		t.Fatalf("generation counters missing: %+v", snap.Counters)
	}
	found := false
	for name := range snap.Series {
		if strings.HasSuffix(name, ".critic_loss") {
			found = true
		}
	}
	if !found {
		t.Fatal("no critic-loss series in snapshot")
	}

	prom, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer prom.Body.Close()
	if ct := prom.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prom content type %q", ct)
	}
	body, _ := io.ReadAll(prom.Body)
	if !strings.Contains(string(body), "webapi_jobs_submitted") {
		t.Fatalf("prometheus output missing counter:\n%.500s", body)
	}
}

// TestStatusIncludesJobMetrics: finished jobs report their final per-chunk
// losses in the status response.
func TestStatusIncludesJobMetrics(t *testing.T) {
	ts, _ := startServer(t)
	st := postJob(t, ts, tinyJob("netflow"))
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	if final.Metrics == nil {
		t.Fatal("done job has no metrics")
	}
	if len(final.Metrics.ChunkCriticLoss) != 2 || len(final.Metrics.ChunkGenLoss) != 2 {
		t.Fatalf("per-chunk losses = %+v, want 2 chunks", final.Metrics)
	}
}

// TestPprofGatedByDebugFlag: the profiling endpoints exist only when Debug
// is set before Handler.
func TestPprofGatedByDebugFlag(t *testing.T) {
	ts, _ := startServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without Debug: %d, want 404", resp.StatusCode)
	}

	api := NewServer(1)
	api.Debug = true
	dbg := httptest.NewServer(api.Handler())
	t.Cleanup(dbg.Close)
	resp2, err := http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof with Debug: %d, want 200", resp2.StatusCode)
	}
}
