package webapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Durable serving (DESIGN.md §10): when a registry is attached, every
// terminal job is persisted — its status document, its trained model as
// a checksummed container, and its synthetic trace as a columnar store —
// and a restarted server recovers all of it on boot. Jobs that were still
// pending or running when the process died were never persisted and are
// simply absent after recovery; clients resubmit them.

// Pre-registered telemetry handles for registry traffic through the API.
var (
	telJobsRecovered  = telemetry.Default.Counter("webapi.registry.jobs.recovered")
	telModelsServed   = telemetry.Default.Counter("webapi.registry.model.generations")
	telTracesStreamed = telemetry.Default.Counter("webapi.registry.trace.streamed")
	telRegistryErrors = telemetry.Default.Counter("webapi.registry.errors")
)

// maxRequestBody caps training-endpoint upload bodies: large enough for
// the 100k-record prototype cap with room to spare, small enough that a
// hostile client cannot balloon the heap.
const maxRequestBody = 64 << 20

// maxGenerateBody caps generate-endpoint bodies: the request is a small
// JSON document (count/format/fast), so anything past 1 MiB is hostile.
const maxGenerateBody = 1 << 20

// RecoveryStats reports what UseRegistry found on boot.
type RecoveryStats struct {
	// Jobs is the number of terminal job records recovered into the
	// server's job table; Models counts stored models now servable.
	Jobs   int
	Models int
	// Swept counts files the boot-time GC pass removed (stray temp files,
	// orphans, corrupt entries); Corrupt how many of those were corrupt.
	Swept   int
	Corrupt int
}

// UseRegistry attaches a durable registry to the server and recovers its
// persisted state: a garbage-collection sweep first (so recovery only
// trusts validated entries, and legacy flat-CSV traces are migrated to
// stores), then every terminal job record is loaded back into the job
// table. Call it once, before Handler is serving
// traffic. Models remain on disk; a generate request decodes its model
// once into the server's model cache (fastserve.go).
func (s *Server) UseRegistry(reg *registry.Registry) (RecoveryStats, error) {
	var stats RecoveryStats
	rep, err := reg.Sweep()
	if err != nil {
		return stats, fmt.Errorf("webapi: registry sweep: %w", err)
	}
	stats.Swept, stats.Corrupt = len(rep.Removed), rep.Corrupt
	// Drop cached entries the sweep invalidated (a boot-time no-op).
	s.sweepCaches(reg)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	for _, rec := range reg.Jobs() {
		var st JobStatus
		if err := json.Unmarshal(rec.Status, &st); err != nil || st.ID != rec.ID {
			telRegistryErrors.Inc()
			continue
		}
		if st.State != StateDone && st.State != StateFailed {
			// Only terminal states are ever persisted; anything else is a
			// foreign or future record we do not understand.
			continue
		}
		s.jobs[st.ID] = &job{status: st}
		// Keep new job IDs monotonic across restarts.
		if n, err := strconv.Atoi(strings.TrimPrefix(st.ID, "job-")); err == nil && n > s.nextID {
			s.nextID = n
		}
		telJobsRecovered.Inc()
		stats.Jobs++
	}
	stats.Models = len(reg.Models())
	return stats, nil
}

// registry returns the attached registry (nil when running memory-only).
func (s *Server) registry() *registry.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg
}

// persistResult commits a finished job: the model container (written
// by save) first, then the trace as a block-compressed columnar store
// (DESIGN.md §13) built in the registry's staging directory, and the
// status document with it.
func (s *Server) persistResult(id string, save func(io.Writer) error, gen trace.Source) {
	reg := s.registry()
	if reg == nil {
		return
	}
	var model bytes.Buffer
	if err := save(&model); err != nil {
		s.registryError(id, fmt.Errorf("save model: %w", err))
		return
	}
	if _, err := reg.PutModel(id, model.Bytes()); err != nil {
		s.registryError(id, err)
		return
	}
	s.persistStatus(id, func(rec registry.JobRecord) error {
		rec.Model = id
		return reg.PutJobStore(rec, func(dir string) error {
			_, err := store.Write(dir, gen, store.Options{})
			return err
		})
	})
}

// persistFailed durably records a terminal failure (no model, no trace),
// so a restarted server still reports the job and its error.
func (s *Server) persistFailed(id string) {
	if reg := s.registry(); reg != nil {
		s.persistStatus(id, reg.PutJob)
	}
}

// persistStatus hands put the job's record carrying a snapshot of its
// status document.
func (s *Server) persistStatus(id string, put func(registry.JobRecord) error) {
	st, ok := s.statusSnapshot(id)
	if !ok {
		return
	}
	statusJSON, err := json.Marshal(st)
	if err == nil {
		err = put(registry.JobRecord{ID: id, State: string(st.State), Status: statusJSON})
	}
	if err != nil {
		s.registryError(id, err)
	}
}

// registryError counts and logs a persistence failure. Durability is
// best-effort relative to the job itself: the job already finished in
// memory, so a full registry disk must not fail it.
func (s *Server) registryError(id string, err error) {
	telRegistryErrors.Inc()
	slog.Error("webapi: persist job", "job", id, "err", err)
}

// handleModels lists the registry's stored models.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	reg := s.registry()
	if reg == nil {
		writeError(w, http.StatusServiceUnavailable, "no registry configured (start the server with -registry)")
		return
	}
	models := reg.Models()
	if models == nil {
		models = []registry.ModelInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": models})
}

// GenerateRequest is the POST /api/v1/models/{name}/generate body.
type GenerateRequest struct {
	// Count is the synthetic record/packet count (default 1000, capped at
	// 100000 like job submissions).
	Count int `json:"count,omitempty"`
	// Format is csv (default, both kinds), netflow5, netflow9 or ipfix
	// (flow models), or pcap (packet models); trace.LookupFormat holds
	// the table. Anything else is a 400 before any generation runs.
	Format string `json:"format,omitempty"`
	// Label pins generation to one scenario label (trace.ParseLabel names,
	// e.g. "dos"). Requires a flow model trained with conditioning
	// (core.Config.Conditional); anything else is a 400. Empty means the
	// model's trained scenario mixture.
	Label string `json:"label,omitempty"`
	// Fast opts into the float32 fast mode (fastserve.go): a snapshot of
	// the cached model that generates one request at a time. Higher
	// throughput on large counts, but output depends on request ordering —
	// only its distribution is pinned. The default mode, served from the
	// same cached model, is per-request deterministic.
	Fast bool `json:"fast,omitempty"`
}

// handleModelGenerate serves generation from a stored model. It
// validates the request against the model's manifest, then serveGenerate
// runs it on the model's cached decoded entry (fastserve.go). Default-mode
// output depends only on the model, count and label: the same request
// always produces bitwise-identical output, before and after a restart.
func (s *Server) handleModelGenerate(w http.ResponseWriter, r *http.Request) {
	reg := s.registry()
	if reg == nil {
		writeError(w, http.StatusServiceUnavailable, "no registry configured (start the server with -registry)")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxGenerateBody)
	var req GenerateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.Count <= 0 {
		req.Count = 1000
	}
	if req.Count > 100_000 {
		writeError(w, http.StatusBadRequest, "count capped at 100000 for the prototype")
		return
	}
	if req.Format == "" {
		req.Format = "csv"
	}
	label := -1
	if req.Label != "" {
		l, ok := trace.ParseLabel(req.Label)
		if !ok {
			writeError(w, http.StatusBadRequest, "unknown scenario label %q", req.Label)
			return
		}
		label = int(l)
	}

	name := r.PathValue("name")
	info, err := reg.Model(name)
	if err != nil {
		// Deleted or never stored: drop any entry or reply still cached
		// for it.
		s.sweepModels(func(n string) bool { return n != name })
		s.artifactDrop(func(a *artifact) bool { return a.model != name })
		writeError(w, http.StatusNotFound, "model %q: %v", name, err)
		return
	}
	f, err := trace.LookupFormat(req.Format, traceKind(info.Kind))
	if err != nil {
		writeError(w, http.StatusBadRequest, "model %q: %v", name, err)
		return
	}
	if label >= 0 && traceKind(info.Kind) == trace.KindPCAP {
		writeError(w, http.StatusBadRequest, "label %q: model %q is a packet model; labeled generation is flow-only", req.Label, name)
		return
	}
	s.serveGenerate(w, info, req, f, label)
}
