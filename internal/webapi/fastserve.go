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

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Fast serving (DESIGN.md §11): POST /api/v1/models/{name}/generate with
// "fast": true routes through a float32 inference snapshot instead of
// loading a fresh float64 synthesizer per request. Two mechanisms make it
// fast under load:
//
//   - an LRU cache of decoded snapshots in front of the registry, so the
//     container is read and decoded once per model, not once per request;
//   - a cross-request batch scheduler: concurrent generate calls for the
//     same model coalesce into ONE batched forward fan-out
//     (core.Fast*Synthesizer.GenerateBatch), each request receiving its
//     proportional per-chunk share.
//
// The default (non-fast) path is untouched and keeps its contract: a fresh
// synthesizer per request, bitwise-deterministic output. The fast path
// trades that for throughput — a cached snapshot's RNG advances across
// requests, so responses depend on request ordering; only the output
// DISTRIBUTION is pinned (internal/conformance). Models stored as fast
// containers (flow-fast / packet-fast kinds) always serve via this path:
// they carry no float64 weights to be deterministic with.

// Pre-registered telemetry handles for the fast path.
var (
	telFastBatches   = telemetry.Default.Counter("webapi.fast.batches")
	telFastRequests  = telemetry.Default.Counter("webapi.fast.requests")
	telFastCacheHits = telemetry.Default.Counter("webapi.fast.cache.hits")
	telFastCacheMiss = telemetry.Default.Counter("webapi.fast.cache.misses")
	telFastPanics    = telemetry.Default.Counter("webapi.fast.panics")
)

// defaultFastCacheCap bounds the decoded-snapshot LRU when the server
// does not override FastCacheCap.
const defaultFastCacheCap = 8

// errFastEvicted fails waiters stranded when a registry sweep drops
// their snapshot mid-queue. It is retryable: serveFastGenerate's loop
// reloads from the registry, turning a swept model into a clean 404
// instead of a half-served response.
var errFastEvicted = errors.New("webapi: fast snapshot evicted by registry sweep")

// fastWait is one request's slot in a coalesced batch.
type fastWait struct {
	count int
	// label pins this request to one scenario (-1 = unconditional mixture).
	// The scheduler only coalesces same-label requests into one batch.
	label int
	out   trace.Source
	err   error
	done  chan struct{}
}

// fastEntry is one model's cached snapshot plus its batch scheduler state.
// Exactly one of flow/pkt is set.
type fastEntry struct {
	name string
	flow *core.FastFlowSynthesizer
	pkt  *core.FastPacketSynthesizer

	mu      sync.Mutex
	pending []*fastWait
	running bool
	// dead marks an entry poisoned by a generation panic: it accepts no new
	// waiters and has been evicted, so the next request decodes a fresh
	// snapshot instead of reusing corrupt in-memory state.
	dead bool
}

// fastState initializes the LRU lazily under s.fastMu.
func (s *Server) fastState() {
	if s.fastCache == nil {
		s.fastCache = make(map[string]*list.Element)
		s.fastLRU = list.New()
	}
}

// fastCap resolves the effective cache capacity.
func (s *Server) fastCap() int {
	if s.FastCacheCap > 0 {
		return s.FastCacheCap
	}
	return defaultFastCacheCap
}

// lookupFast returns the cached entry for name, refreshing its LRU
// position, or nil on miss.
func (s *Server) lookupFast(name string) *fastEntry {
	s.fastMu.Lock()
	defer s.fastMu.Unlock()
	s.fastState()
	el, ok := s.fastCache[name]
	if !ok {
		return nil
	}
	s.fastLRU.MoveToFront(el)
	return el.Value.(*fastEntry)
}

// insertFast caches entry, evicting the least-recently-used snapshot past
// capacity. If another goroutine inserted the same name first, that entry
// wins and is returned — both requests then coalesce on one scheduler.
func (s *Server) insertFast(entry *fastEntry) *fastEntry {
	s.fastMu.Lock()
	defer s.fastMu.Unlock()
	s.fastState()
	if el, ok := s.fastCache[entry.name]; ok {
		s.fastLRU.MoveToFront(el)
		return el.Value.(*fastEntry)
	}
	s.fastCache[entry.name] = s.fastLRU.PushFront(entry)
	for s.fastLRU.Len() > s.fastCap() {
		oldest := s.fastLRU.Back()
		delete(s.fastCache, oldest.Value.(*fastEntry).name)
		s.fastLRU.Remove(oldest)
	}
	return entry
}

// evictFast drops name from the cache (no-op when absent or already
// replaced by a newer entry for the same name).
func (s *Server) evictFast(entry *fastEntry) {
	s.fastMu.Lock()
	defer s.fastMu.Unlock()
	s.fastState()
	if el, ok := s.fastCache[entry.name]; ok && el.Value.(*fastEntry) == entry {
		delete(s.fastCache, entry.name)
		s.fastLRU.Remove(el)
	}
}

// loadFastEntry decodes a snapshot for name from the registry's stored
// container: fast containers decode directly; reference containers load
// the float64 synthesizer and snapshot it.
func (s *Server) loadFastEntry(name string) (*fastEntry, int, error) {
	reg := s.registry()
	framed, info, err := reg.ModelBytes(name)
	if err != nil {
		return nil, http.StatusNotFound, fmt.Errorf("model %q: %w", name, err)
	}
	entry := &fastEntry{name: name}
	switch info.Kind {
	case "flow":
		syn, err := core.LoadFlowSynthesizer(bytes.NewReader(framed))
		if err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("load model %q: %w", name, err)
		}
		entry.flow = syn.Fast()
	case "flow-fast":
		if entry.flow, err = core.LoadFastFlowSynthesizer(bytes.NewReader(framed)); err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("load model %q: %w", name, err)
		}
	case "packet":
		syn, err := core.LoadPacketSynthesizer(bytes.NewReader(framed))
		if err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("load model %q: %w", name, err)
		}
		entry.pkt = syn.Fast()
	case "packet-fast":
		if entry.pkt, err = core.LoadFastPacketSynthesizer(bytes.NewReader(framed)); err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("load model %q: %w", name, err)
		}
	default:
		return nil, http.StatusInternalServerError, fmt.Errorf("model %q has unknown kind %q", name, info.Kind)
	}
	return entry, 0, nil
}

// serveFastGenerate handles one fast-path generate request end to end:
// snapshot lookup/decode, batch enqueue, wait, encode in format f. label
// is the parsed scenario label (-1 for the unconditional mixture).
func (s *Server) serveFastGenerate(w http.ResponseWriter, name string, req GenerateRequest, f trace.Format, label int) {
	telFastRequests.Inc()
	for {
		entry := s.lookupFast(name)
		if entry == nil {
			telFastCacheMiss.Inc()
			loaded, code, err := s.loadFastEntry(name)
			if err != nil {
				writeError(w, code, "%v", err)
				return
			}
			entry = s.insertFast(loaded)
		} else {
			telFastCacheHits.Inc()
		}
		if label >= 0 {
			// Kind was validated upstream; conditioning is a property of the
			// decoded snapshot, so it is checked here.
			if entry.flow == nil {
				writeError(w, http.StatusBadRequest, "label %q: model %q is a packet model; labeled generation is flow-only", req.Label, name)
				return
			}
			if !entry.flow.Conditional() {
				writeError(w, http.StatusBadRequest, "label %q: model %q was not trained with scenario conditioning", req.Label, name)
				return
			}
		}

		wait := &fastWait{count: req.Count, label: label, done: make(chan struct{})}
		entry.mu.Lock()
		if entry.dead {
			// Poisoned between lookup and enqueue; retry with a fresh
			// snapshot (the panicking runner already evicted this one).
			entry.mu.Unlock()
			continue
		}
		entry.pending = append(entry.pending, wait)
		runner := !entry.running
		if runner {
			entry.running = true
		}
		entry.mu.Unlock()

		// First arriver becomes the runner and drains the queue; requests
		// landing while a batch is in flight are picked up by the next
		// drain and coalesce into one forward fan-out.
		if runner {
			s.runFastBatches(entry)
		}
		<-wait.done
		if errors.Is(wait.err, errFastEvicted) {
			// A registry sweep dropped the snapshot while this request was
			// queued; retry against the registry so the response is either a
			// fresh complete trace or a clean 404 — never a partial result.
			continue
		}
		if wait.err != nil {
			writeError(w, http.StatusInternalServerError, "%v", wait.err)
			return
		}
		if writeTrace(w, name, f, wait.out) {
			telModelsServed.Inc()
		}
		return
	}
}

// runFastBatches drains the entry's pending queue, one coalesced
// GenerateBatch per drain, until the queue is empty. A batch only
// coalesces requests pinned to the same scenario label (the conditioning
// vector is per-forward-pass, not per-row); waiters for other labels
// stay queued and are drained by subsequent iterations.
func (s *Server) runFastBatches(entry *fastEntry) {
	for {
		entry.mu.Lock()
		if len(entry.pending) == 0 {
			entry.running = false
			entry.mu.Unlock()
			return
		}
		label := entry.pending[0].label
		var batch, rest []*fastWait
		for _, w := range entry.pending {
			if w.label == label {
				batch = append(batch, w)
			} else {
				rest = append(rest, w)
			}
		}
		entry.pending = rest
		entry.mu.Unlock()
		if !s.serveFastBatch(entry, batch, label) {
			return
		}
	}
}

// serveFastBatch runs one coalesced forward fan-out. A panic anywhere in
// generation is contained the same way job panics are (run's recover →
// StateFailed): every waiter in this batch AND any that queued meanwhile
// fails with an error response, the entry is marked dead and evicted so
// its (possibly corrupt) state is never reused, and the scheduler slot is
// released. Returns false when the entry died and draining must stop.
func (s *Server) serveFastBatch(entry *fastEntry, batch []*fastWait, label int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			telFastPanics.Inc()
			err := fmt.Errorf("fast generation for model %q panicked: %v", entry.name, r)
			// Refuse new waiters first, then fail everyone already queued.
			// Waiters in `batch` were never completed (the panic aborted
			// GenerateBatch before any done channel closed).
			entry.mu.Lock()
			entry.dead = true
			entry.running = false
			stranded := entry.pending
			entry.pending = nil
			entry.mu.Unlock()
			for _, w := range append(batch, stranded...) {
				w.err = err
				close(w.done)
			}
			s.evictFast(entry)
			ok = false
		}
	}()
	if s.fastHook != nil {
		s.fastHook(entry.name, len(batch))
	}
	counts := make([]int, len(batch))
	for i, w := range batch {
		counts[i] = w.count
	}
	if entry.flow != nil {
		var outs []*trace.FlowTrace
		if label >= 0 {
			var err error
			if outs, err = entry.flow.GenerateLabeledBatch(counts, trace.Label(label)); err != nil {
				// Pre-validated at enqueue, so this is defensive: fail the
				// batch without poisoning the snapshot.
				for _, w := range batch {
					w.err = err
					close(w.done)
				}
				return true
			}
		} else {
			outs = entry.flow.GenerateBatch(counts)
		}
		for i, w := range batch {
			w.out = outs[i]
			close(w.done)
		}
	} else {
		outs := entry.pkt.GenerateBatch(counts)
		for i, w := range batch {
			w.out = outs[i]
			close(w.done)
		}
	}
	telFastBatches.Inc()
	return true
}

// writeTrace encodes src in format f into a buffer before sending the
// header, so an encode error is still a clean 500, and reports whether a
// success response was written.
func writeTrace(w http.ResponseWriter, name string, f trace.Format, src trace.Source) bool {
	var buf bytes.Buffer
	if err := f.Encode(&buf, src); err != nil {
		writeError(w, http.StatusInternalServerError, "encode trace: %v", err)
		return false
	}
	writeAttachment(w, name, f, buf.Bytes())
	return true
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

// sweepFastCache drops every cached snapshot whose model keep rejects.
// Each dropped entry is marked dead first (so no new waiter can join it)
// and its queued-but-unbatched waiters fail with the retryable
// errFastEvicted; a batch already in flight completes from the in-memory
// snapshot. Together with serveFastGenerate's retry loop this makes a
// concurrent sweep + generate resolve to either a complete trace or a
// 404 — never a partial response. Returns how many entries were dropped.
func (s *Server) sweepFastCache(keep func(name string) bool) int {
	s.fastMu.Lock()
	var dropped []*fastEntry
	if s.fastLRU != nil {
		for el := s.fastLRU.Front(); el != nil; {
			next := el.Next()
			entry := el.Value.(*fastEntry)
			if !keep(entry.name) {
				delete(s.fastCache, entry.name)
				s.fastLRU.Remove(el)
				dropped = append(dropped, entry)
			}
			el = next
		}
	}
	s.fastMu.Unlock()

	for _, entry := range dropped {
		entry.mu.Lock()
		entry.dead = true
		stranded := entry.pending
		entry.pending = nil
		entry.mu.Unlock()
		for _, w := range stranded {
			w.err = errFastEvicted
			close(w.done)
		}
	}
	return len(dropped)
}

// isFastKind reports whether a stored model kind is a fast container
// (which carries no float64 weights and can only serve via the fast path).
func isFastKind(kind string) bool { return strings.HasSuffix(kind, "-fast") }

// traceKind maps a job kind ("netflow", "pcap") or a stored model kind
// ("flow", "packet", "flow-fast", "packet-fast") to its trace kind.
func traceKind(kind string) trace.Kind {
	if kind == "pcap" || strings.HasPrefix(kind, "packet") {
		return trace.KindPCAP
	}
	return trace.KindNetFlow
}
