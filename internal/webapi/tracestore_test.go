package webapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/container"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/trace"
)

// SweepRegistry re-runs the registry's garbage-collection sweep and
// evicts the server caches it invalidated (sweepCaches).
// Safe to call periodically while serving.
func (s *Server) SweepRegistry() (registry.SweepReport, error) {
	reg := s.registry()
	if reg == nil {
		return registry.SweepReport{}, fmt.Errorf("webapi: no registry attached")
	}
	rep, err := reg.Sweep()
	if err != nil {
		return rep, fmt.Errorf("webapi: registry sweep: %w", err)
	}
	s.sweepCaches(reg)
	return rep, nil
}

// queryTrace is a deterministic flow trace with enough variety for
// filter and aggregation assertions: 600 rows, 1ms apart.
func queryTrace(n int) *trace.FlowTrace {
	t := &trace.FlowTrace{}
	for i := 0; i < n; i++ {
		t.Records = append(t.Records, trace.FlowRecord{
			Tuple: trace.FiveTuple{
				SrcIP:   trace.IPv4FromBytes(10, 0, 0, byte(i%4)),
				DstIP:   trace.IPv4FromBytes(192, 168, 1, byte(i%3)),
				SrcPort: uint16(1024 + i%7),
				DstPort: []uint16{443, 53}[i%2],
				Proto:   []trace.Protocol{trace.TCP, trace.UDP}[i%2],
			},
			Start:    int64(i) * 1000,
			Duration: int64(i % 900),
			Packets:  int64(1 + i%9),
			Bytes:    int64(40 + i%1400),
			Label:    trace.Label(i % 3),
		})
	}
	return t
}

// seedStoreJob persists a terminal store-backed job directly into the
// registry directory — the shape persistResult writes — so serving
// tests don't have to pay for a training run.
func seedStoreJob(t *testing.T, dir, id string, ft *trace.FlowTrace) {
	t.Helper()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	status, _ := json.Marshal(JobStatus{
		ID: id, Kind: "netflow", State: StateDone,
		Submitted: "2026-01-01T00:00:00Z", Records: len(ft.Records),
	})
	rec := registry.JobRecord{ID: id, State: string(StateDone), Status: status}
	err = reg.PutJobStore(rec, func(dir string) error {
		_, err := store.Write(dir, ft, store.Options{BlockRows: 64, PartitionRows: 256})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func getQuery(t *testing.T, ts *httptest.Server, path string) (int, queryResponse) {
	t.Helper()
	code, body := fetch(t, ts, path)
	var resp queryResponse
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("bad query response %s: %v", body, err)
		}
	}
	return code, resp
}

// TestJobPersistsColumnarStore runs a real training job against a
// registry and checks the end-to-end store path: the persisted payload
// is a columnar store, the CSV download still matches the in-memory
// trace byte for byte, and the query endpoint sees every row.
func TestJobPersistsColumnarStore(t *testing.T) {
	dir := t.TempDir()
	ts, api, _ := startServerWithRegistry(t, dir)
	st := postJob(t, ts, tinyJob("netflow"))
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	waitPersisted(t, api, st.ID)

	rec, err := api.registry().Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TraceKind != "netflow" || rec.TraceRows != int64(final.Records) {
		t.Fatalf("job not persisted as a store: %+v", rec)
	}

	// The streamed CSV is byte-identical to encoding the in-memory trace.
	api.mu.Lock()
	gen := api.jobs[st.ID].out.(*trace.FlowTrace)
	api.mu.Unlock()
	var want bytes.Buffer
	if err := trace.WriteFlowCSV(&want, gen); err != nil {
		t.Fatal(err)
	}
	code, got := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/trace?format=csv")
	if code != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("store-streamed CSV drifted (code %d, %d vs %d bytes)", code, len(got), want.Len())
	}

	// The query endpoint sees every generated row.
	code, resp := getQuery(t, ts, "/api/v1/traces/"+st.ID+"/query?agg=count")
	if code != http.StatusOK || resp.Rows != int64(final.Records) {
		t.Fatalf("count query: code %d rows %d want %d", code, resp.Rows, final.Records)
	}
}

// TestTraceQueryEndpoint exercises the query surface over a seeded
// store-backed job: filtered rows, window pruning, aggregations, and
// the error paths.
func TestTraceQueryEndpoint(t *testing.T) {
	dir := t.TempDir()
	ft := queryTrace(600)
	seedStoreJob(t, dir, "job-1", ft)
	ts, _, stats := startServerWithRegistry(t, dir)
	if stats.Jobs != 1 {
		t.Fatalf("recovered %d jobs, want 1", stats.Jobs)
	}

	// Unfiltered count matches the trace.
	code, resp := getQuery(t, ts, "/api/v1/traces/job-1/query?agg=count")
	if code != http.StatusOK || resp.Rows != 600 {
		t.Fatalf("count: code %d resp %+v", code, resp)
	}

	// Filtered rows match brute force over the source trace.
	wantRows := 0
	for _, r := range ft.Records {
		if r.Tuple.SrcIP == trace.IPv4FromBytes(10, 0, 0, 1) && r.Tuple.DstPort == 53 {
			wantRows++
		}
	}
	code, resp = getQuery(t, ts, "/api/v1/traces/job-1/query?filter=src_ip%3D10.0.0.1%2Cdst_port%3D53")
	if code != http.StatusOK || len(resp.Flows) != wantRows || resp.Rows != int64(wantRows) {
		t.Fatalf("filter: code %d got %d rows want %d", code, len(resp.Flows), wantRows)
	}
	for _, f := range resp.Flows {
		if f.SrcIP != "10.0.0.1" || f.DstPort != 53 {
			t.Fatalf("row escaped the filter: %+v", f)
		}
	}

	// A time window prunes partitions: rows 100..200 live in one slice of
	// the store, and the stats must prove the rest was never read.
	code, resp = getQuery(t, ts, "/api/v1/traces/job-1/query?agg=count&from=100000&to=200000")
	if code != http.StatusOK || resp.Rows != 101 {
		t.Fatalf("window count: code %d rows %d want 101", code, resp.Rows)
	}
	if resp.Stats.PartitionsPruned == 0 || resp.Stats.RowsScanned >= 600 {
		t.Fatalf("window did not prune: %+v", resp.Stats)
	}

	// Top talkers: 4 sources, topk=2 returns the heaviest two.
	code, resp = getQuery(t, ts, "/api/v1/traces/job-1/query?topk=2")
	if code != http.StatusOK || resp.Agg != "talkers" || len(resp.Buckets) != 2 {
		t.Fatalf("talkers: code %d resp %+v", code, resp)
	}
	if resp.Buckets[0].Bytes < resp.Buckets[1].Bytes {
		t.Fatalf("talkers not sorted by bytes: %+v", resp.Buckets)
	}

	// Port histogram sees both destination ports.
	code, resp = getQuery(t, ts, "/api/v1/traces/job-1/query?agg=ports")
	if code != http.StatusOK || len(resp.Buckets) != 2 {
		t.Fatalf("ports: code %d resp %+v", code, resp)
	}

	// Row limit truncates without error.
	code, resp = getQuery(t, ts, "/api/v1/traces/job-1/query?limit=10")
	if code != http.StatusOK || len(resp.Flows) != 10 {
		t.Fatalf("limit: code %d got %d rows", code, len(resp.Flows))
	}

	// Error paths: bad filter, bad agg, bad window, unknown job.
	for path, want := range map[string]int{
		"/api/v1/traces/job-1/query?filter=bogus":   http.StatusBadRequest,
		"/api/v1/traces/job-1/query?agg=median":     http.StatusBadRequest,
		"/api/v1/traces/job-1/query?from=yesterday": http.StatusBadRequest,
		"/api/v1/traces/job-1/query?limit=0":        http.StatusBadRequest,
		"/api/v1/traces/job-none/query":             http.StatusNotFound,
	} {
		if code, _ := fetch(t, ts, path); code != want {
			t.Fatalf("%s: code %d want %d", path, code, want)
		}
	}
}

// TestQueryWithoutRegistryOrStore covers the two degraded setups: a
// memory-only server answers 503, and a job persisted as a flat-CSV
// payload before the columnar store is not recovered, so its query
// answers 404.
func TestQueryWithoutRegistryOrStore(t *testing.T) {
	ts, _ := startServer(t)
	if code, _ := fetch(t, ts, "/api/v1/traces/job-1/query"); code != http.StatusServiceUnavailable {
		t.Fatalf("memory-only query: %d", code)
	}

	dir := t.TempDir()
	var csv bytes.Buffer
	ft := queryTrace(10)
	if err := trace.WriteFlowCSV(&csv, ft); err != nil {
		t.Fatal(err)
	}
	// The layout registries wrote before the columnar store: a manifest
	// with the payload CRC next to the container-framed CSV.
	if _, err := registry.Open(dir); err != nil {
		t.Fatal(err)
	}
	status, _ := json.Marshal(JobStatus{ID: "job-1", Kind: "netflow", State: StateDone, Submitted: "x"})
	manifest, _ := json.Marshal(map[string]any{
		"id": "job-1", "state": "done", "status": json.RawMessage(status), "traceKind": "netflow",
		"traceChecksum": crc32.ChecksumIEEE(csv.Bytes()), "traceSize": csv.Len(),
	})
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job-1.json"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	framed := container.Encode(4, csv.Bytes()) // the retired flat-trace kind
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job-1.trace"), framed, 0o644); err != nil {
		t.Fatal(err)
	}

	ts2, _, stats := startServerWithRegistry(t, dir)
	if stats.Jobs != 0 || stats.Swept != 2 || stats.Corrupt != 0 {
		t.Fatalf("recovery stats = %+v, want the pre-store job's two files swept", stats)
	}
	if code, _ := fetch(t, ts2, "/api/v1/traces/job-1/query?agg=count"); code != http.StatusNotFound {
		t.Fatalf("pre-store job query: %d, want 404", code)
	}
}

// TestEncodedDownloadStreamAndCache checks the satellite download path:
// a recovered store-backed job's netflow5 download is byte-identical to
// the legacy buffered encode, the second download comes from the
// artifact LRU, and a registry sweep after job deletion evicts it.
func TestEncodedDownloadStreamAndCache(t *testing.T) {
	dir := t.TempDir()
	ft := queryTrace(600)
	seedStoreJob(t, dir, "job-1", ft)
	ts, api, _ := startServerWithRegistry(t, dir)

	var want bytes.Buffer
	if err := trace.WriteNetFlowV5(&want, ft); err != nil {
		t.Fatal(err)
	}
	miss0, hit0 := telArtifactMisses.Value(), telArtifactHits.Value()
	code, got := fetch(t, ts, "/api/v1/jobs/job-1/trace?format=netflow5")
	if code != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed netflow5 drifted (code %d, %d vs %d bytes)", code, len(got), want.Len())
	}
	if telArtifactMisses.Value() != miss0+1 {
		t.Fatal("first download did not count as a cache miss")
	}

	// Second download hits the artifact LRU and serves identical bytes.
	code, got2 := fetch(t, ts, "/api/v1/jobs/job-1/trace?format=netflow5")
	if code != http.StatusOK || !bytes.Equal(got2, got) {
		t.Fatal("cached download differs from streamed download")
	}
	if telArtifactHits.Value() != hit0+1 {
		t.Fatal("second download did not hit the cache")
	}

	// Deleting the job's manifest and sweeping evicts its cached artifact.
	if err := os.Remove(filepath.Join(dir, "jobs", "job-1.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := api.SweepRegistry(); err != nil {
		t.Fatal(err)
	}
	api.artMu.Lock()
	size, entries := api.artSize, len(api.artCache)
	api.artMu.Unlock()
	if size != 0 || entries != 0 {
		t.Fatalf("artifact survived sweep: %d bytes in %d entries", size, entries)
	}
}

// TestArtifactLRUByteBudget drives the cache directly: inserts past the
// budget evict the cold end, and oversized artifacts are never cached.
func TestArtifactLRUByteBudget(t *testing.T) {
	s := NewServer(1)
	s.ArtifactCacheBytes = 100
	put := func(id string, n int) {
		s.artifactPut(&artifact{key: artifactKey(id, "pcap"), jobID: id, data: make([]byte, n)})
	}
	put("a", 40)
	put("b", 40)
	if _, ok := s.artifactGet(artifactKey("a", "pcap")); !ok {
		t.Fatal("a missing before budget pressure")
	}
	// a is now the warm entry; inserting c must evict b (cold end).
	put("c", 40)
	if _, ok := s.artifactGet(artifactKey("b", "pcap")); ok {
		t.Fatal("cold entry b survived past the byte budget")
	}
	for _, id := range []string{"a", "c"} {
		if _, ok := s.artifactGet(artifactKey(id, "pcap")); !ok {
			t.Fatalf("warm entry %s evicted", id)
		}
	}
	// An artifact larger than the whole budget is refused outright.
	put("huge", 200)
	if _, ok := s.artifactGet(artifactKey("huge", "pcap")); ok {
		t.Fatal("oversized artifact cached")
	}
	// A negative budget disables caching entirely.
	s2 := NewServer(1)
	s2.ArtifactCacheBytes = -1
	s2.artifactPut(&artifact{key: "k", jobID: "j", data: []byte("x")})
	if _, ok := s2.artifactGet("k"); ok {
		t.Fatal("caching not disabled by negative budget")
	}
}
