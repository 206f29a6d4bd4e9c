package webapi

import (
	"bytes"
	"container/list"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Store-backed trace serving (DESIGN.md §13). Jobs persisted as columnar
// stores are queryable in place — GET /api/v1/traces/{id}/query prunes
// partitions by time window and decodes only the columns a filter
// touches — and their downloads, in every format, are encoded as a
// bounded-memory stream straight off the store scan instead of
// materializing the whole trace. Because the encode costs CPU every
// time, finished artifacts are kept in a bytes-bounded LRU keyed by
// (job, format). The same LRU holds default-mode generate replies keyed
// by model version (fastserve.go serveGenerate); a registry sweep evicts
// entries whose job or model is gone.

// Pre-registered telemetry handles for store-backed serving.
var (
	telTraceQueries   = telemetry.Default.Counter("webapi.trace.queries")
	telArtifactHits   = telemetry.Default.Counter("webapi.artifacts.hits")
	telArtifactMisses = telemetry.Default.Counter("webapi.artifacts.misses")
	telArtifactEvict  = telemetry.Default.Counter("webapi.artifacts.evicted")
)

// DefaultArtifactCacheBytes bounds the encoded-reply LRU when the
// server does not configure ArtifactCacheBytes. At the prototype's 100k
// record cap a pcap artifact tops out around 8 MiB, so the default
// holds a handful of hot traces.
const DefaultArtifactCacheBytes = 32 << 20

// artifact is one cached encoded reply: a job's download (jobID set) or
// a default-mode generate reply (model set).
type artifact struct {
	key    string
	jobID  string
	model  string
	data   []byte
	format trace.Format
}

// artifactKey builds the LRU key for a job's encoded download.
func artifactKey(id, format string) string { return id + "|" + format }

// replyKey builds the LRU key for a default-mode generate reply: the
// model version (name and manifest) plus count, label and format. Entry
// names cannot contain '|', so no reply key equals a download key.
func replyKey(info registry.ModelInfo, count, label int, format string) string {
	return fmt.Sprintf("%s|%08x|%d|%s|%d|%d|%s",
		info.Name, info.Checksum, info.Size, info.SavedAt, count, label, format)
}

// artifactCap resolves the configured cache budget.
func (s *Server) artifactCap() int64 {
	switch {
	case s.ArtifactCacheBytes > 0:
		return s.ArtifactCacheBytes
	case s.ArtifactCacheBytes < 0:
		return 0 // caching disabled
	}
	return DefaultArtifactCacheBytes
}

// artifactGet returns a cached encoded download and bumps its recency.
func (s *Server) artifactGet(key string) (*artifact, bool) {
	s.artMu.Lock()
	defer s.artMu.Unlock()
	el, ok := s.artCache[key]
	if !ok {
		return nil, false
	}
	s.artLRU.MoveToFront(el)
	return el.Value.(*artifact), true
}

// artifactPut inserts an encoded download, evicting from the cold end
// until the byte budget holds. Artifacts larger than the whole budget
// are not cached at all.
func (s *Server) artifactPut(a *artifact) {
	budget := s.artifactCap()
	if budget <= 0 || int64(len(a.data)) > budget {
		return
	}
	s.artMu.Lock()
	defer s.artMu.Unlock()
	if s.artCache == nil {
		s.artCache = make(map[string]*list.Element)
		s.artLRU = list.New()
	}
	if el, ok := s.artCache[a.key]; ok {
		s.artSize -= int64(len(el.Value.(*artifact).data))
		s.artLRU.Remove(el)
		delete(s.artCache, a.key)
	}
	s.artCache[a.key] = s.artLRU.PushFront(a)
	s.artSize += int64(len(a.data))
	for s.artSize > budget {
		el := s.artLRU.Back()
		if el == nil {
			break
		}
		old := el.Value.(*artifact)
		s.artLRU.Remove(el)
		delete(s.artCache, old.key)
		s.artSize -= int64(len(old.data))
		telArtifactEvict.Inc()
	}
}

// artifactDrop removes every cached artifact for which keep returns
// false.
func (s *Server) artifactDrop(keep func(a *artifact) bool) {
	s.artMu.Lock()
	defer s.artMu.Unlock()
	if s.artLRU == nil {
		return
	}
	for el := s.artLRU.Front(); el != nil; {
		next := el.Next()
		a := el.Value.(*artifact)
		if !keep(a) {
			s.artLRU.Remove(el)
			delete(s.artCache, a.key)
			s.artSize -= int64(len(a.data))
			telArtifactEvict.Inc()
		}
		el = next
	}
}

// sweepCaches evicts server caches that reg no longer backs: cached
// artifacts whose job or model is gone, and decoded model entries whose
// model is gone (fastserve.go sweepModels — requests not yet running on
// a dropped entry retry and get a clean 404 rather than a stale or
// partial response).
func (s *Server) sweepCaches(reg *registry.Registry) {
	alive := make(map[string]bool)
	for _, m := range reg.Models() {
		alive[m.Name] = true
	}
	s.artifactDrop(func(a *artifact) bool {
		if a.model != "" {
			return alive[a.model]
		}
		_, err := reg.Job(a.jobID)
		return err == nil
	})
	s.sweepModels(func(name string) bool { return alive[name] })
}

// streamStoredTrace serves a store-backed job's download in format f:
// from the artifact LRU when hot, otherwise encoded as a stream off the
// store scan while teeing into the cache. Returns false when the
// registry holds no trace for the job (caller falls back to the
// in-memory trace).
func (s *Server) streamStoredTrace(w http.ResponseWriter, id string, f trace.Format) bool {
	reg := s.registry()
	if reg == nil {
		return false
	}
	rec, err := reg.Job(id)
	if err != nil || rec.TraceKind == "" {
		return false
	}

	key := artifactKey(id, f.Name)
	if a, ok := s.artifactGet(key); ok {
		telArtifactHits.Inc()
		writeAttachment(w, id, a.format, a.data)
		return true
	}
	telArtifactMisses.Inc()

	str, err := reg.OpenStore(id)
	if err != nil {
		telRegistryErrors.Inc()
		return false
	}
	setAttachmentHeaders(w, id, f)
	w.WriteHeader(http.StatusOK)

	// Tee the stream into a buffer so a complete encode can be cached;
	// an encode error after the header is sent just truncates the body.
	var buf bytes.Buffer
	if err := f.Encode(io.MultiWriter(w, &buf), str); err != nil {
		telRegistryErrors.Inc()
		return true
	}
	telTracesStreamed.Inc()
	s.artifactPut(&artifact{key: key, jobID: id, data: buf.Bytes(), format: f})
	return true
}

// flowJSON is one flow row in a query response.
type flowJSON struct {
	StartUs    int64  `json:"startUs"`
	DurationUs int64  `json:"durationUs"`
	SrcIP      string `json:"srcIp"`
	DstIP      string `json:"dstIp"`
	SrcPort    uint16 `json:"srcPort"`
	DstPort    uint16 `json:"dstPort"`
	Proto      uint8  `json:"proto"`
	Packets    int64  `json:"packets"`
	Bytes      int64  `json:"bytes"`
	Label      string `json:"label"`
}

// packetJSON is one packet row in a query response.
type packetJSON struct {
	TimeUs  int64  `json:"timeUs"`
	SrcIP   string `json:"srcIp"`
	DstIP   string `json:"dstIp"`
	SrcPort uint16 `json:"srcPort"`
	DstPort uint16 `json:"dstPort"`
	Proto   uint8  `json:"proto"`
	Size    int64  `json:"size"`
	TTL     uint8  `json:"ttl"`
	Flags   uint8  `json:"flags"`
}

// queryResponse is the GET /api/v1/traces/{id}/query body.
type queryResponse struct {
	ID      string         `json:"id"`
	Kind    string         `json:"kind"`
	Agg     string         `json:"agg"`
	Rows    int64          `json:"rows"`
	Stats   store.Stats    `json:"stats"`
	Flows   []flowJSON     `json:"flows,omitempty"`
	Packets []packetJSON   `json:"packets,omitempty"`
	Buckets []store.Talker `json:"buckets,omitempty"`
}

// queryRowLimit caps row-returning queries; clients page with tighter
// time windows or filters instead.
const (
	defaultQueryLimit = 1000
	maxQueryLimit     = 10000
)

// handleTraceQuery serves predicate-pushdown queries over a job's
// columnar trace store: time-window pruning via from/to (microseconds),
// five-tuple/label filtering via filter (store.ParseFilter syntax), and
// aggregations via agg=count|talkers|ports (topk sizes the bucket
// list; agg defaults to talkers when only topk is given). The response
// carries per-query Stats so callers can see how little was read.
func (s *Server) handleTraceQuery(w http.ResponseWriter, r *http.Request) {
	reg := s.registry()
	if reg == nil {
		writeError(w, http.StatusServiceUnavailable, "no registry configured (start the server with -registry)")
		return
	}
	id := r.PathValue("id")
	rec, err := reg.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if rec.TraceKind == "" {
		writeError(w, http.StatusNotFound, "job %q has no stored trace", id)
		return
	}
	str, err := reg.OpenStore(id)
	if err != nil {
		telRegistryErrors.Inc()
		writeError(w, http.StatusInternalServerError, "open store for job %q: %v", id, err)
		return
	}

	q := r.URL.Query()
	flt, err := store.ParseFilter(q.Get("filter"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	from, to := int64(math.MinInt64), int64(math.MaxInt64)
	window := false
	if v := q.Get("from"); v != "" {
		if from, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "from: %q is not a microsecond timestamp", v)
			return
		}
		window = true
	}
	if v := q.Get("to"); v != "" {
		if to, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "to: %q is not a microsecond timestamp", v)
			return
		}
		window = true
	}
	if window {
		flt = flt.Window(from, to)
	}
	limit := defaultQueryLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxQueryLimit {
			writeError(w, http.StatusBadRequest, "limit must be in [1, %d]", maxQueryLimit)
			return
		}
		limit = n
	}
	topk := 10
	if v := q.Get("topk"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxQueryLimit {
			writeError(w, http.StatusBadRequest, "topk must be in [1, %d]", maxQueryLimit)
			return
		}
		topk = n
	}
	agg := q.Get("agg")
	if agg == "" && q.Get("topk") != "" {
		agg = "talkers"
	}

	resp := queryResponse{ID: id, Kind: str.Kind().String(), Agg: agg}
	switch agg {
	case "":
		resp.Agg = "rows"
		if str.Kind() == trace.KindNetFlow {
			recs, st, err := str.QueryFlows(flt, limit)
			if err != nil {
				writeError(w, http.StatusInternalServerError, "query: %v", err)
				return
			}
			resp.Stats, resp.Rows = st, int64(len(recs))
			resp.Flows = make([]flowJSON, len(recs))
			for i, fr := range recs {
				resp.Flows[i] = flowJSON{
					StartUs: fr.Start, DurationUs: fr.Duration,
					SrcIP: fr.Tuple.SrcIP.String(), DstIP: fr.Tuple.DstIP.String(),
					SrcPort: fr.Tuple.SrcPort, DstPort: fr.Tuple.DstPort,
					Proto: uint8(fr.Tuple.Proto), Packets: fr.Packets,
					Bytes: fr.Bytes, Label: fr.Label.String(),
				}
			}
		} else {
			recs, st, err := str.QueryPackets(flt, limit)
			if err != nil {
				writeError(w, http.StatusInternalServerError, "query: %v", err)
				return
			}
			resp.Stats, resp.Rows = st, int64(len(recs))
			resp.Packets = make([]packetJSON, len(recs))
			for i, p := range recs {
				resp.Packets[i] = packetJSON{
					TimeUs: p.Time,
					SrcIP:  p.Tuple.SrcIP.String(), DstIP: p.Tuple.DstIP.String(),
					SrcPort: p.Tuple.SrcPort, DstPort: p.Tuple.DstPort,
					Proto: uint8(p.Tuple.Proto), Size: int64(p.Size),
					TTL: p.TTL, Flags: p.Flags,
				}
			}
		}
	case "count":
		n, st, err := str.Count(flt)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "query: %v", err)
			return
		}
		resp.Stats, resp.Rows = st, n
	case "talkers":
		buckets, st, err := str.TopTalkers(flt, topk)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "query: %v", err)
			return
		}
		resp.Stats, resp.Rows, resp.Buckets = st, st.RowsMatched, buckets
	case "ports":
		buckets, st, err := str.PortCounts(flt, topk)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "query: %v", err)
			return
		}
		resp.Stats, resp.Rows, resp.Buckets = st, st.RowsMatched, buckets
	default:
		writeError(w, http.StatusBadRequest, "agg must be count, talkers or ports (or empty for rows)")
		return
	}
	telTraceQueries.Inc()
	writeJSON(w, http.StatusOK, resp)
}
