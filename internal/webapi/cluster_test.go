package webapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// postJobRaw submits a job and returns the raw response, for tests that
// expect rejection.
func postJobRaw(t *testing.T, ts *httptest.Server, req JobRequest) ([]byte, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

// startClusterWorker drains q in the background until the test ends.
func startClusterWorker(t *testing.T, q *cluster.Queue, id string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	w := &cluster.Worker{ID: id, Queue: q, TTL: 30 * time.Second, Poll: 20 * time.Millisecond}
	go func() {
		defer close(done)
		_, _ = w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// TestClusterEndpointsWithoutQueue: with no queue attached, the cluster
// endpoints 404 and cluster-flagged submissions are refused up front.
func TestClusterEndpointsWithoutQueue(t *testing.T) {
	ts, _ := startServer(t)
	if code, _ := fetch(t, ts, "/api/v1/cluster"); code != http.StatusNotFound {
		t.Fatalf("GET /api/v1/cluster without queue = %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/api/v1/cluster/workers/w1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("heartbeat without queue = %d, want 404", resp.StatusCode)
	}

	req := tinyJob("netflow")
	req.Cluster = true
	body, code := postJobRaw(t, ts, req)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("cluster submit without queue = %d (%s), want 503", code, body)
	}
}

// TestClusterJobRejectsDP: the cluster path has no cross-worker privacy
// accounting, so DP jobs must be rejected at validation.
func TestClusterJobRejectsDP(t *testing.T) {
	ts, _ := startServer(t)
	req := tinyJob("netflow")
	req.Cluster = true
	req.DP = &DPRequest{NoiseMultiplier: 1}
	body, code := postJobRaw(t, ts, req)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "dp") {
		t.Fatalf("cluster DP submit = %d (%s), want 400", code, body)
	}
}

// TestClusterJobOverAPI runs the same tiny job locally and through the
// cluster queue (drained by an in-process worker) and requires the
// distributed result to be byte-identical, with the queue's progress
// mirrored into the job status and surfaced at the cluster endpoint.
func TestClusterJobOverAPI(t *testing.T) {
	ts, api := startServer(t)
	q, err := cluster.OpenQueue(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	api.AttachCluster(q)
	startClusterWorker(t, q, "worker-api-1")

	local := postJob(t, ts, tinyJob("netflow"))
	if final := waitDone(t, ts, local.ID); final.State != StateDone {
		t.Fatalf("local job failed: %s", final.Error)
	}
	codeL, csvLocal := fetch(t, ts, "/api/v1/jobs/"+local.ID+"/trace?format=csv")
	if codeL != http.StatusOK {
		t.Fatalf("local download: %d", codeL)
	}

	req := tinyJob("netflow")
	req.Cluster = true
	st := postJob(t, ts, req)
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("cluster job failed: %s", final.Error)
	}
	if len(final.Chunks) != req.Chunks {
		t.Fatalf("chunks = %+v, want %d entries", final.Chunks, req.Chunks)
	}
	for i, c := range final.Chunks {
		if c.State != ChunkDone {
			t.Fatalf("chunk %d state = %q, want done", i, c.State)
		}
	}

	codeC, csvCluster := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/trace?format=csv")
	if codeC != http.StatusOK {
		t.Fatalf("cluster download: %d", codeC)
	}
	if !bytes.Equal(csvLocal, csvCluster) {
		t.Fatal("cluster-trained trace diverged from the local run")
	}

	// The fleet snapshot lists the worker and the drained job.
	code, body := fetch(t, ts, "/api/v1/cluster")
	if code != http.StatusOK {
		t.Fatalf("GET /api/v1/cluster = %d", code)
	}
	for _, want := range []string{"worker-api-1", st.ID, `"state":"done"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("cluster snapshot missing %q: %s", want, body)
		}
	}

	// Heartbeating over the API registers a remote worker in the same
	// queue directory.
	resp, err := http.Post(ts.URL+"/api/v1/cluster/workers/remote-w9", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat = %d", resp.StatusCode)
	}
	if _, body := fetch(t, ts, "/api/v1/cluster"); !strings.Contains(string(body), "remote-w9") {
		t.Fatalf("cluster snapshot missing heartbeated worker: %s", body)
	}
}
