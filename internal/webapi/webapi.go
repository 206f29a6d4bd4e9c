// Package webapi implements the web-service prototype of the paper's §5
// (the authors host theirs at pcapshare.com): an HTTP API through which a
// data holder submits a trace (or selects a built-in dataset), trains
// NetShare asynchronously, and downloads the synthetic trace in CSV,
// libpcap, NetFlow v5, NetFlow v9 or IPFIX format (the trace.LookupFormat
// table).
//
//	POST /api/v1/jobs              submit a training job
//	GET  /api/v1/jobs              list jobs
//	GET  /api/v1/jobs/{id}         job status
//	GET  /api/v1/jobs/{id}/trace   download the synthetic trace
//	GET  /api/v1/traces/{id}/query query a store-backed trace in place
//	GET  /api/v1/datasets          list built-in datasets
//	GET  /api/v1/models            list durably stored models
//	POST /api/v1/models/{name}/generate  generate from a stored model
//	GET  /api/v1/ingest            live-ingestion stats (when attached)
//	GET  /api/v1/cluster           cluster queue status (when attached)
//	POST /api/v1/cluster/workers/{id}  worker heartbeat (when attached)
//	GET  /healthz                  liveness
//
// With a registry attached (UseRegistry), trained models and terminal
// jobs survive restarts: a rebooted server recovers them and serves
// generation output bitwise-identical to the pre-restart process.
package webapi

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ingest"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Pre-registered telemetry handles (DESIGN.md §9).
var (
	telJobsSubmitted = telemetry.Default.Counter("webapi.jobs.submitted")
	telJobsDone      = telemetry.Default.Counter("webapi.jobs.done")
	telJobsFailed    = telemetry.Default.Counter("webapi.jobs.failed")
	telJobDuration   = telemetry.Default.Timer("webapi.job.duration")
)

// JobRequest is the POST /api/v1/jobs body.
type JobRequest struct {
	// Kind is "netflow" or "pcap".
	Kind string `json:"kind"`
	// Dataset selects a built-in dataset; CSV supplies an inline trace in
	// the package trace CSV schema instead. Exactly one must be set.
	Dataset string `json:"dataset,omitempty"`
	CSV     string `json:"csv,omitempty"`
	// Records sizes the built-in dataset.
	Records int `json:"records,omitempty"`
	// Generate is the synthetic record/packet count to produce.
	Generate int `json:"generate,omitempty"`

	// Config overrides (zero values keep defaults).
	Chunks        int   `json:"chunks,omitempty"`
	SeedSteps     int   `json:"seedSteps,omitempty"`
	FineTuneSteps int   `json:"fineTuneSteps,omitempty"`
	MaxLen        int   `json:"maxLen,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	// Parallelism is the training/generation worker count (0 = all CPUs,
	// 1 = serial). Results are bitwise identical at every setting; the knob
	// only trades wall-clock time against CPU use.
	Parallelism int `json:"parallelism,omitempty"`

	// MaxRetries is a cluster job's durable re-lease budget per chunk: a
	// chunk whose worker crashes or fails is leased again up to MaxRetries
	// times before the job fails. Local jobs reject it: their chunk tasks
	// fail only on deterministic errors that a retry would replay.
	MaxRetries int `json:"maxRetries,omitempty"`

	// Cluster routes the job through the attached distributed chunk queue
	// (AttachCluster) instead of training in-process. Requires at least
	// one worker draining the queue; results are bitwise identical to a
	// local run.
	Cluster bool `json:"cluster,omitempty"`

	// DP enables differentially private training.
	DP *DPRequest `json:"dp,omitempty"`
}

// DPRequest configures DP-SGD for a job.
type DPRequest struct {
	NoiseMultiplier float64 `json:"noiseMultiplier"`
	Pretrain        bool    `json:"pretrain"`
}

// JobState enumerates a job's lifecycle.
type JobState string

// Job lifecycle states.
const (
	StatePending JobState = "pending"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// ChunkInfo is one chunk's live training status within a job.
type ChunkInfo struct {
	// State is pending, training, retrying (cluster jobs only), or done.
	State string `json:"state"`
	// Attempts counts training attempts consumed so far.
	Attempts int `json:"attempts,omitempty"`
}

// Per-chunk states surfaced in ChunkInfo.
const (
	ChunkPending  = "pending"
	ChunkTraining = "training"
	ChunkRetrying = "retrying"
	ChunkDone     = "done"
)

// JobMetrics carries a finished job's training telemetry in status
// responses: the final per-chunk losses (full per-step curves are exposed
// process-wide at GET /metrics). Values come from core.Stats, so they are
// deterministic and race-free even with concurrent jobs.
type JobMetrics struct {
	ChunkCriticLoss []float64 `json:"chunkCriticLoss,omitempty"`
	ChunkGenLoss    []float64 `json:"chunkGenLoss,omitempty"`
}

// JobStatus is the GET /api/v1/jobs/{id} response.
type JobStatus struct {
	ID        string   `json:"id"`
	Kind      string   `json:"kind"`
	State     JobState `json:"state"`
	Error     string   `json:"error,omitempty"`
	Submitted string   `json:"submitted"`
	// Chunks is the per-chunk training status, live while the job runs.
	Chunks []ChunkInfo `json:"chunks,omitempty"`
	// Training stats, present once done.
	CPUMillis  int64   `json:"cpuMillis,omitempty"`
	WallMillis int64   `json:"wallMillis,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Records    int     `json:"records,omitempty"`
	// GenMillis is the wall-clock time of the generation phase.
	GenMillis int64 `json:"genMillis,omitempty"`
	// Metrics holds per-job training telemetry, present once done.
	Metrics *JobMetrics `json:"metrics,omitempty"`
}

// clone deep-copies the status so handlers can serialize it outside the
// server lock. The Chunks slice (and Metrics) must not be shared: the
// training executor's progress callbacks mutate the live elements
// concurrently.
func (st JobStatus) clone() JobStatus {
	out := st
	out.Chunks = append([]ChunkInfo(nil), st.Chunks...)
	if st.Metrics != nil {
		m := JobMetrics{
			ChunkCriticLoss: append([]float64(nil), st.Metrics.ChunkCriticLoss...),
			ChunkGenLoss:    append([]float64(nil), st.Metrics.ChunkGenLoss...),
		}
		out.Metrics = &m
	}
	return out
}

// job is the server-side job record.
type job struct {
	status JobStatus
	out    trace.Source // the synthetic trace, once done
}

// Server is the HTTP API. Create with NewServer and mount via Handler.
type Server struct {
	// Debug mounts /debug/pprof/ on the handler. Set before calling
	// Handler; the profiling endpoints expose internals and should stay
	// off on anything public-facing.
	Debug bool

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int

	// publicPackets sizes the public embedding corpus.
	publicPackets int
	// maxInflight bounds concurrently running jobs (the prototype runs on
	// one box; excess submissions queue as pending until a slot frees).
	sem chan struct{}

	// runHook, when non-nil, runs at the start of every job body — the
	// test seam for the panic-containment tests.
	runHook func(id string)

	// reg is the durable model/job registry; nil means memory-only
	// operation. Attach with UseRegistry before serving traffic.
	reg *registry.Registry

	// modelCache is the decoded-model LRU that serves both generate modes
	// (fastserve.go).
	modelMu    sync.Mutex
	modelCache map[string]*list.Element
	modelLRU   *list.List

	// ArtifactCacheBytes bounds the encoded-reply LRU (tracestore.go):
	// downloads of store-backed traces, in every format, and default-mode
	// generate replies are cached up to this many payload bytes. 0 selects
	// the default; negative disables.
	ArtifactCacheBytes int64
	artMu              sync.Mutex
	artCache           map[string]*list.Element
	artLRU             *list.List
	artSize            int64
	// genHook, when non-nil, runs before generation in each fast request
	// and in each default-mode request the reply cache misses — the test
	// seam for ordering, panic and sweep tests.
	genHook func(name string)

	// ingestSrc, when attached, backs GET /api/v1/ingest with live
	// flow-assembly statistics.
	ingestSrc IngestSource

	// clusterQ, when attached, backs the cluster endpoints and routes
	// Cluster-flagged jobs through the distributed chunk queue.
	clusterQ *cluster.Queue
}

// IngestSource is anything that can snapshot ingestion statistics —
// in practice *ingest.Assembler, kept behind an interface so the API
// layer stays decoupled from the assembler and tests can fake it.
type IngestSource interface {
	Stats() ingest.Stats
}

// AttachIngest exposes src's statistics at GET /api/v1/ingest. Safe to
// call before or while serving; pass nil to detach.
func (s *Server) AttachIngest(src IngestSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ingestSrc = src
}

// NewServer returns an API server allowing up to maxInflight concurrent
// training jobs.
func NewServer(maxInflight int) *Server {
	if maxInflight < 1 {
		maxInflight = 1
	}
	return &Server{
		jobs:          make(map[string]*job),
		publicPackets: 1500,
		sem:           make(chan struct{}, maxInflight),
	}
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"service": "netshare web prototype",
			"paper":   "Practical GAN-based Synthetic IP Header Trace Generation using NetShare (SIGCOMM 2022), section 5",
			"endpoints": []string{
				"GET /healthz",
				"GET /api/v1/datasets",
				"POST /api/v1/jobs",
				"GET /api/v1/jobs",
				"GET /api/v1/jobs/{id}",
				"GET /api/v1/jobs/{id}/trace?format=csv|pcap|netflow5|netflow9|ipfix",
				"GET /api/v1/traces/{id}/query?from=&to=&filter=&agg=&topk=&limit=",
				"GET /api/v1/models",
				"POST /api/v1/models/{name}/generate",
			},
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /api/v1/datasets", s.handleDatasets)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleDownload)
	mux.HandleFunc("GET /api/v1/traces/{id}/query", s.handleTraceQuery)
	mux.HandleFunc("GET /api/v1/models", s.handleModels)
	mux.HandleFunc("POST /api/v1/models/{name}/generate", s.handleModelGenerate)
	mux.HandleFunc("GET /api/v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /api/v1/cluster", s.handleCluster)
	mux.HandleFunc("POST /api/v1/cluster/workers/{id}", s.handleWorkerHeartbeat)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.Debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleIngest serves the attached ingest source's statistics.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	src := s.ingestSrc
	s.mu.Unlock()
	if src == nil {
		writeError(w, http.StatusNotFound, "no ingest source attached")
		return
	}
	writeJSON(w, http.StatusOK, src.Stats())
}

// handleMetrics serves the process-wide telemetry snapshot: JSON by
// default, Prometheus text exposition with ?format=prom (or an Accept
// header asking for text/plain).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := telemetry.Default.Snapshot()
	if r.URL.Query().Get("format") == "prom" ||
		strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = snap.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"netflow": datasets.FlowDatasetNames,
		"pcap":    append(append([]string(nil), datasets.PacketDatasetNames...), "caida-chicago"),
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if err := validateRequest(&req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	if req.Cluster && s.clusterQueue() == nil {
		writeError(w, http.StatusServiceUnavailable, "no cluster queue attached")
		return
	}

	st := s.newJob(req.Kind)
	telJobsSubmitted.Inc()
	go s.run(st.ID, req)
	writeJSON(w, http.StatusAccepted, st)
}

// newJob registers a pending job and returns a snapshot of its status.
func (s *Server) newJob(kind string) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	j := &job{status: JobStatus{
		ID:        id,
		Kind:      kind,
		State:     StatePending,
		Submitted: time.Now().UTC().Format(time.RFC3339),
	}}
	s.jobs[id] = j
	return j.status.clone()
}

func validateRequest(req *JobRequest) error {
	switch req.Kind {
	case "netflow", "pcap":
	default:
		return fmt.Errorf("kind must be netflow or pcap, got %q", req.Kind)
	}
	if (req.Dataset == "") == (req.CSV == "") {
		return fmt.Errorf("exactly one of dataset or csv must be set")
	}
	if req.Dataset != "" {
		if req.Records <= 0 {
			req.Records = 1000
		}
		if req.Records > 100_000 {
			return fmt.Errorf("records capped at 100000 for the prototype")
		}
	}
	if req.Generate <= 0 {
		req.Generate = 1000
	}
	if req.Generate > 100_000 {
		return fmt.Errorf("generate capped at 100000 for the prototype")
	}
	if req.DP != nil && req.DP.NoiseMultiplier <= 0 {
		return fmt.Errorf("dp.noiseMultiplier must be positive")
	}
	if req.Cluster && req.DP != nil {
		// DP-SGD keeps its privacy accountant in one process; the cluster
		// path has no cross-worker ε accounting.
		return fmt.Errorf("dp jobs cannot run on the cluster")
	}
	if req.MaxRetries < 0 || req.MaxRetries > 10 {
		return fmt.Errorf("maxRetries must be in [0, 10]")
	}
	if req.MaxRetries != 0 && !req.Cluster {
		return fmt.Errorf("maxRetries applies to cluster jobs only")
	}
	if req.Parallelism < 0 {
		return fmt.Errorf("parallelism must be >= 0 (0 = all CPUs)")
	}
	return nil
}

// config assembles the NetShare configuration of a request.
func (req *JobRequest) config() core.Config {
	cfg := core.DefaultConfig()
	if req.Chunks > 0 {
		cfg.Chunks = req.Chunks
	}
	if req.SeedSteps > 0 {
		cfg.SeedSteps = req.SeedSteps
	}
	if req.FineTuneSteps > 0 {
		cfg.FineTuneSteps = req.FineTuneSteps
	}
	if req.MaxLen > 0 {
		cfg.MaxLen = req.MaxLen
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	cfg.Parallelism = req.Parallelism
	if req.DP != nil {
		cfg.Chunks = 1
		cfg.DP = &core.DPConfig{
			NoiseMultiplier: req.DP.NoiseMultiplier,
			ClipNorm:        1.0,
			Delta:           1e-5,
			Pretrain:        req.DP.Pretrain,
			PretrainSteps:   cfg.SeedSteps,
		}
	}
	return cfg
}

// run executes one job in the background. Panics in the job body are
// contained: the job fails, the inflight slot is released, and — because
// every status mutation helper unlocks via defer — no lock is left held,
// so the server stays fully responsive afterwards.
func (s *Server) run(id string, req JobRequest) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	sw := telJobDuration.Start()
	defer sw.Stop()
	defer func() {
		if r := recover(); r != nil {
			s.fail(id, fmt.Errorf("job panicked: %v", r))
		}
	}()

	s.setState(id, StateRunning, nil)
	if s.runHook != nil {
		s.runHook(id)
	}
	if err := s.execute(id, req); err != nil {
		s.fail(id, err)
		return
	}
	telJobsDone.Inc()
}

func (s *Server) fail(id string, err error) {
	telJobsFailed.Inc()
	s.setState(id, StateFailed, err)
	s.persistFailed(id)
}

// jobModel is what a job needs of a trained synthesizer besides
// generation.
type jobModel interface {
	Stats() core.Stats
	Save(io.Writer) error
}

// execute trains the job's synthesizer, generates its trace, and
// publishes and persists the result.
func (s *Server) execute(id string, req JobRequest) error {
	cfg := req.config()
	s.initChunks(id, cfg.Chunks)
	var (
		syn jobModel
		gen func() (trace.Source, int)
	)
	switch req.Kind {
	case "netflow":
		f, err := s.trainFlow(id, req, cfg)
		if err != nil {
			return err
		}
		syn, gen = f, func() (trace.Source, int) { t := f.Generate(req.Generate); return t, len(t.Records) }
	case "pcap":
		p, err := s.trainPacket(id, req, cfg)
		if err != nil {
			return err
		}
		syn, gen = p, func() (trace.Source, int) { t := p.Generate(req.Generate); return t, len(t.Packets) }
	default:
		return fmt.Errorf("job kind %q", req.Kind)
	}
	genStart := time.Now()
	out, n := gen()
	s.finish(id, syn.Stats(), time.Since(genStart), out, n)
	s.persistResult(id, syn.Save, out)
	return nil
}

// trainFlow produces a flow job's synthesizer. Local and cluster jobs
// differ only in where the plan's chunk tasks run: in this process, or
// on the workers draining the cluster queue.
func (s *Server) trainFlow(id string, req JobRequest, cfg core.Config) (*core.FlowSynthesizer, error) {
	if req.Cluster {
		coord, err := s.runClusterJob(id, req, cfg)
		if err != nil {
			return nil, err
		}
		return coord.AssembleFlow(id)
	}
	real, err := loadFlowInput(req)
	if err != nil {
		return nil, err
	}
	plan, err := core.PlanFlowTraining(real, s.publicCorpus(cfg), cfg)
	if err != nil {
		return nil, err
	}
	return plan.Train(s.executor(id))
}

// trainPacket is trainFlow for pcap jobs.
func (s *Server) trainPacket(id string, req JobRequest, cfg core.Config) (*core.PacketSynthesizer, error) {
	if req.Cluster {
		coord, err := s.runClusterJob(id, req, cfg)
		if err != nil {
			return nil, err
		}
		return coord.AssemblePacket(id)
	}
	real, err := loadPacketInput(req)
	if err != nil {
		return nil, err
	}
	plan, err := core.PlanPacketTraining(real, s.publicCorpus(cfg), cfg)
	if err != nil {
		return nil, err
	}
	return plan.Train(s.executor(id))
}

// publicCorpus is the public embedding corpus of a job (the same corpus
// cluster workers rebuild from the job spec).
func (s *Server) publicCorpus(cfg core.Config) *trace.PacketTrace {
	return datasets.CAIDAChicago(s.publicPackets, cfg.Seed+500)
}

// executor runs a local job's chunk tasks, feeding their progress into
// the job's per-chunk status.
func (s *Server) executor(id string) core.Executor {
	return core.Executor{Progress: func(chunk int, done bool) { s.chunkProgress(id, chunk, done) }}
}

func loadFlowInput(req JobRequest) (*trace.FlowTrace, error) {
	if req.CSV != "" {
		return trace.ReadFlowCSV(strings.NewReader(req.CSV))
	}
	t := datasets.FlowByName(req.Dataset, req.Records, 1)
	if t == nil {
		return nil, fmt.Errorf("unknown netflow dataset %q", req.Dataset)
	}
	return t, nil
}

func loadPacketInput(req JobRequest) (*trace.PacketTrace, error) {
	if req.CSV != "" {
		return trace.ReadPacketCSV(strings.NewReader(req.CSV))
	}
	t := datasets.PacketByName(req.Dataset, req.Records, 1)
	if t == nil {
		return nil, fmt.Errorf("unknown pcap dataset %q", req.Dataset)
	}
	return t, nil
}

// initChunks publishes the job's chunk slots before training starts.
func (s *Server) initChunks(id string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		j.status.Chunks = make([]ChunkInfo, n)
		for i := range j.status.Chunks {
			j.status.Chunks[i].State = ChunkPending
		}
	}
}

// chunkProgress moves a local job's chunk to training (its one attempt)
// or done.
func (s *Server) chunkProgress(id string, chunk int, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || chunk < 0 || chunk >= len(j.status.Chunks) {
		return
	}
	c := &j.status.Chunks[chunk]
	if done {
		c.State = ChunkDone
	} else {
		c.State, c.Attempts = ChunkTraining, 1
	}
}

func (s *Server) setState(id string, state JobState, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return
	}
	j.status.State = state
	if err != nil {
		j.status.Error = err.Error()
	}
}

// finish publishes a completed job's result (records rows of out) and
// final stats.
func (s *Server) finish(id string, st core.Stats, genDur time.Duration, out trace.Source, records int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return
	}
	j.out = out
	j.status.State = StateDone
	j.status.CPUMillis = st.CPUTime.Milliseconds()
	j.status.WallMillis = st.WallTime.Milliseconds()
	j.status.Epsilon = st.Epsilon
	j.status.Records = records
	j.status.GenMillis = genDur.Milliseconds()
	j.status.Metrics = &JobMetrics{
		ChunkCriticLoss: append([]float64(nil), st.ChunkCriticLoss...),
		ChunkGenLoss:    append([]float64(nil), st.ChunkGenLoss...),
	}
}

// statusSnapshot returns a deep copy of one job's status, taken under the
// server lock so concurrent chunk events cannot race the serialization.
func (s *Server) statusSnapshot(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, false
	}
	return j.status.clone(), true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	out := func() []JobStatus {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make([]JobStatus, 0, len(s.jobs))
		for _, j := range s.jobs {
			out = append(out, j.status.clone())
		}
		return out
	}()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.statusSnapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDownload(w http.ResponseWriter, r *http.Request) {
	// Snapshot the state and result under the lock; the trace itself is
	// written once before State flips to done and read-only afterwards,
	// so encoding may proceed unlocked.
	st, out, ok := func() (JobStatus, trace.Source, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		j := s.jobs[r.PathValue("id")]
		if j == nil {
			return JobStatus{}, nil, false
		}
		return j.status.clone(), j.out, true
	}()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if st.State != StateDone {
		writeError(w, http.StatusConflict, "job is %s", st.State)
		return
	}
	name := r.URL.Query().Get("format")
	if name == "" {
		name = "csv"
	}
	f, err := trace.LookupFormat(name, traceKind(st.Kind))
	if err != nil {
		writeError(w, http.StatusBadRequest, "job %s: %v", st.ID, err)
		return
	}
	// Persisted jobs stream off their columnar store, fronted by the
	// artifact LRU (tracestore.go); others encode the in-memory trace.
	if s.streamStoredTrace(w, st.ID, f) {
		return
	}
	if out == nil {
		writeError(w, http.StatusNotFound, "trace unavailable for job %s", st.ID)
		return
	}
	writeTrace(w, st.ID, f, out)
}
