package webapi

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Model serving (DESIGN.md §11): POST /api/v1/models/{name}/generate
// decodes each stored model once, into a name-keyed LRU entry, and serves
// both generate modes from that entry:
//
//   - the default mode calls the float64 synthesizer's stateless
//     GenerateFresh without holding a lock, so concurrent requests run
//     side by side. Every response equals the first generate
//     of a freshly loaded model: the same model, count and label always
//     produce bitwise-identical output, before and after a restart. The
//     encoded reply is therefore cached in the artifact LRU, and a repeat
//     request is served from it without generating;
//   - "fast": true routes through a float32 snapshot, built from the
//     float64 synthesizer by the entry's first fast request. Each request
//     runs its own chunk fan-out on it (core.Fast*Synthesizer.Generate),
//     one at a time per entry under fastMu. The snapshot's RNG advances
//     across requests, so fast responses depend on request ordering; only
//     their DISTRIBUTION is pinned (internal/conformance).
//
// The float32 snapshot exists only in memory, and "fast": true is the
// only way to reach it. A stored model whose kind is neither flow nor
// packet fails with errUnsupportedKind. An entry remembers the manifest
// it was decoded from; a request whose manifest differs (PutModel
// overwrote the name) decodes the model again.

// Pre-registered telemetry handles for the fast mode. They count
// fast-mode requests only; webapi.fast.batches counts one per fast
// generate.
var (
	telFastBatches   = telemetry.Default.Counter("webapi.fast.batches")
	telFastRequests  = telemetry.Default.Counter("webapi.fast.requests")
	telFastCacheHits = telemetry.Default.Counter("webapi.fast.cache.hits")
	telFastCacheMiss = telemetry.Default.Counter("webapi.fast.cache.misses")
	telFastPanics    = telemetry.Default.Counter("webapi.fast.panics")
)

// modelCacheCap bounds the decoded-model LRU.
const modelCacheCap = 8

// errEvicted fails a request whose entry was retired (by a registry
// sweep, an overwrite or a fast-generate panic) before the request ran on
// it. It is retryable: serveGenerate's loop goes back to the registry,
// turning a swept model into a clean 404 instead of a stale or
// half-served response.
var errEvicted = errors.New("webapi: model entry evicted")

// errUnsupportedKind fails a generate request for a stored model whose
// kind no synthesizer decodes, such as a retired float32 snapshot.
var errUnsupportedKind = errors.New("unsupported model kind")

// modelEntry is one decoded model.
type modelEntry struct {
	// info is the registry manifest the entry was decoded from.
	info registry.ModelInfo
	// flow or pkt is the float64 synthesizer the default mode generates
	// from.
	flow        *core.FlowSynthesizer
	pkt         *core.PacketSynthesizer
	conditional bool

	// fastMu serializes the entry's fast requests. fastFlow or fastPkt is
	// the float32 snapshot, built from flow or pkt by the first fast
	// request; both are touched only under fastMu.
	fastMu   sync.Mutex
	fastFlow *core.FastFlowSynthesizer
	fastPkt  *core.FastPacketSynthesizer

	// dead marks an entry retired by a sweep, an overwrite or a
	// fast-generate panic: it has left the cache and runs no new request,
	// so the next request decodes a fresh entry instead of reusing this
	// one.
	dead atomic.Bool
}

// lookupModel returns the cached entry for name, refreshing its LRU
// position, or nil on miss.
func (s *Server) lookupModel(name string) *modelEntry {
	s.modelMu.Lock()
	defer s.modelMu.Unlock()
	el, ok := s.modelCache[name]
	if !ok {
		return nil
	}
	s.modelLRU.MoveToFront(el)
	return el.Value.(*modelEntry)
}

// insertModel caches entry, evicting the least-recently-used entry past
// capacity. If another goroutine cached the same model version first,
// that entry wins and is returned, so fast requests share one snapshot
// and its RNG stream per model version; an entry decoded from another
// version is retired.
func (s *Server) insertModel(entry *modelEntry) *modelEntry {
	s.modelMu.Lock()
	if s.modelCache == nil {
		s.modelCache = make(map[string]*list.Element)
		s.modelLRU = list.New()
	}
	var stale *modelEntry
	if el, ok := s.modelCache[entry.info.Name]; ok {
		if stale = el.Value.(*modelEntry); stale.info == entry.info {
			s.modelLRU.MoveToFront(el)
			s.modelMu.Unlock()
			return stale
		}
		s.modelLRU.Remove(el)
	}
	s.modelCache[entry.info.Name] = s.modelLRU.PushFront(entry)
	for s.modelLRU.Len() > modelCacheCap {
		oldest := s.modelLRU.Back()
		delete(s.modelCache, oldest.Value.(*modelEntry).info.Name)
		s.modelLRU.Remove(oldest)
	}
	s.modelMu.Unlock()
	if stale != nil {
		s.retire(stale)
	}
	return entry
}

// retire drops entry from the cache (unless a newer entry replaced it)
// and marks it dead so no new request runs on it. A generate already
// running finishes from memory.
func (s *Server) retire(entry *modelEntry) {
	s.modelMu.Lock()
	if el, ok := s.modelCache[entry.info.Name]; ok && el.Value.(*modelEntry) == entry {
		delete(s.modelCache, entry.info.Name)
		s.modelLRU.Remove(el)
	}
	s.modelMu.Unlock()
	entry.dead.Store(true)
}

// entryFor returns the entry decoded from the model version info names:
// the cached one, or a fresh decode that replaces a stale one. Cache hits
// and misses are counted for fast-mode requests only.
func (s *Server) entryFor(info registry.ModelInfo, fast bool) (*modelEntry, int, error) {
	if entry := s.lookupModel(info.Name); entry != nil && entry.info == info {
		if fast {
			telFastCacheHits.Inc()
		}
		return entry, 0, nil
	}
	if fast {
		telFastCacheMiss.Inc()
	}
	entry, code, err := s.loadModelEntry(info.Name)
	if err != nil {
		return nil, code, err
	}
	return s.insertModel(entry), 0, nil
}

// loadModelEntry decodes name's stored container. It is the only place
// the server decodes a stored model.
func (s *Server) loadModelEntry(name string) (*modelEntry, int, error) {
	framed, info, err := s.registry().ModelBytes(name)
	if err != nil {
		return nil, http.StatusNotFound, fmt.Errorf("model %q: %w", name, err)
	}
	entry := &modelEntry{info: info}
	r := bytes.NewReader(framed)
	switch info.Kind {
	case "flow":
		entry.flow, err = core.LoadFlowSynthesizer(r)
	case "packet":
		entry.pkt, err = core.LoadPacketSynthesizer(r)
	default:
		return nil, http.StatusInternalServerError, fmt.Errorf("model %q: %w %q", name, errUnsupportedKind, info.Kind)
	}
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("load model %q: %w", name, err)
	}
	entry.conditional = entry.flow != nil && entry.flow.Conditional()
	return entry, 0, nil
}

// serveGenerate answers one generate request for the model version info
// names, in the default or fast mode, encoding the trace in format f.
// label is the parsed scenario label (-1 for the unconditional mixture).
// A default-mode reply is a pure function of the model version, count,
// label and format, so it is cached in the artifact LRU (tracestore.go)
// and a repeat is served from there. Fast replies are never cached: the
// snapshot's RNG advances with every request.
func (s *Server) serveGenerate(w http.ResponseWriter, info registry.ModelInfo, req GenerateRequest, f trace.Format, label int) {
	var key string
	if req.Fast {
		telFastRequests.Inc()
	} else {
		key = replyKey(info, req.Count, label, f.Name)
		if a, ok := s.artifactGet(key); ok {
			telArtifactHits.Inc()
			telModelsServed.Inc()
			writeAttachment(w, info.Name, f, a.data)
			return
		}
		telArtifactMisses.Inc()
	}
	for {
		entry, code, err := s.entryFor(info, req.Fast)
		if err != nil {
			writeError(w, code, "%v", err)
			return
		}
		if label >= 0 && !entry.conditional {
			writeError(w, http.StatusBadRequest, "label %q: model %q was not trained with scenario conditioning", req.Label, info.Name)
			return
		}
		var out trace.Source
		if req.Fast {
			out, err = s.generateFast(entry, req.Count, label)
		} else {
			out, err = s.generateExact(entry, req.Count, label)
		}
		if errors.Is(err, errEvicted) {
			// The entry was retired before this request ran on it; retry
			// against the registry so the response is either a complete
			// trace of the current model or a clean 404.
			continue
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		body, ok := writeTrace(w, info.Name, f, out)
		if !ok {
			return
		}
		telModelsServed.Inc()
		if !req.Fast {
			s.artifactPut(&artifact{key: key, model: info.Name, data: body, format: f})
		}
		return
	}
}

// generateExact runs one default-mode request on entry's float64
// synthesizer. genHook runs before the liveness check, the window in
// which a sweep can retire the entry.
func (s *Server) generateExact(entry *modelEntry, count, label int) (trace.Source, error) {
	if s.genHook != nil {
		s.genHook(entry.info.Name)
	}
	if entry.dead.Load() {
		return nil, errEvicted
	}
	if entry.flow != nil {
		return entry.flow.GenerateFresh(count, label)
	}
	return entry.pkt.GenerateFresh(count), nil
}

// generateFast runs one fast-mode request on entry's float32 snapshot.
// fastMu is held around the liveness check, the snapshot's lazy build and
// the generate, so requests queued on it run one at a time and each finds
// a retired entry dead. A panic anywhere in generation is contained the
// way job panics are (run's recover → StateFailed): this request fails
// with an error response, and the entry is retired so its (possibly
// corrupt) snapshot is never reused; requests queued on fastMu then
// retry on a fresh decode.
func (s *Server) generateFast(entry *modelEntry, count, label int) (out trace.Source, err error) {
	entry.fastMu.Lock()
	defer entry.fastMu.Unlock()
	if entry.dead.Load() {
		return nil, errEvicted
	}
	defer func() {
		if r := recover(); r != nil {
			telFastPanics.Inc()
			s.retire(entry)
			out, err = nil, fmt.Errorf("fast generation for model %q panicked: %v", entry.info.Name, r)
		}
	}()
	if s.genHook != nil {
		s.genHook(entry.info.Name)
	}
	telFastBatches.Inc()
	if entry.pkt != nil {
		if entry.fastPkt == nil {
			entry.fastPkt = entry.pkt.Fast()
		}
		return entry.fastPkt.Generate(count), nil
	}
	if entry.fastFlow == nil {
		entry.fastFlow = entry.flow.Fast()
	}
	if label < 0 {
		return entry.fastFlow.Generate(count), nil
	}
	// Labels are validated before generating; this error is defensive.
	flows, err := entry.fastFlow.GenerateLabeled(count, trace.Label(label))
	if err != nil {
		return nil, err
	}
	return flows, nil
}

// writeTrace encodes src in format f into a buffer before sending the
// header, so an encode error is still a clean 500. It returns the body
// and whether a success response was written.
func writeTrace(w http.ResponseWriter, name string, f trace.Format, src trace.Source) ([]byte, bool) {
	var buf bytes.Buffer
	if err := f.Encode(&buf, src); err != nil {
		writeError(w, http.StatusInternalServerError, "encode trace: %v", err)
		return nil, false
	}
	writeAttachment(w, name, f, buf.Bytes())
	return buf.Bytes(), true
}

// writeAttachment sends body as the download name.<ext> in format f.
func writeAttachment(w http.ResponseWriter, name string, f trace.Format, body []byte) {
	setAttachmentHeaders(w, name, f)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func setAttachmentHeaders(w http.ResponseWriter, name string, f trace.Format) {
	w.Header().Set("Content-Type", f.ContentType)
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.%s", name, f.Ext))
}

// sweepModels retires every cached entry whose model keep rejects.
// Together with serveGenerate's retry loop this makes a concurrent sweep
// + generate resolve to either a complete trace or a 404, never a
// partial response.
func (s *Server) sweepModels(keep func(name string) bool) {
	s.modelMu.Lock()
	var dropped []*modelEntry
	for name, el := range s.modelCache {
		if !keep(name) {
			dropped = append(dropped, el.Value.(*modelEntry))
		}
	}
	s.modelMu.Unlock()
	for _, entry := range dropped {
		s.retire(entry)
	}
}

// traceKind maps a job kind ("netflow", "pcap") or a stored model kind
// ("flow", "packet") to its trace kind. It matches the "packet" prefix, so
// a retired packet kind still passes format validation and reaches
// loadModelEntry's unsupported-kind error.
func traceKind(kind string) trace.Kind {
	if kind == "pcap" || strings.HasPrefix(kind, "packet") {
		return trace.KindPCAP
	}
	return trace.KindNetFlow
}
