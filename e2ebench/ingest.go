package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"repro/internal/datasets"
	"repro/internal/ingest"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webapi"
)

// captureID is the registry job that holds the ingested capture's store.
const captureID = "capture"

// ingestEnv is an in-memory pcap capture plus a registry and a webapi
// server on it.
type ingestEnv struct {
	pcap    []byte
	packets int64
	dir     string
	reg     *registry.Registry
	ts      *httptest.Server
	client  *http.Client
}

func (e ingestEnv) close() {
	if e.ts != nil {
		e.client.CloseIdleConnections()
		e.ts.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

func setupIngest(r *run) (ingestEnv, error) {
	var e ingestEnv
	pk := datasets.CAIDAChicago(r.p.capturePackets, r.seed)
	var buf bytes.Buffer
	if err := trace.WritePCAP(&buf, pk); err != nil {
		return e, fmt.Errorf("write capture: %w", err)
	}
	e.pcap, e.packets = buf.Bytes(), int64(len(pk.Packets))
	var err error
	if e.dir, err = os.MkdirTemp("", "e2ebench-registry-"); err != nil {
		return e, err
	}
	if e.reg, err = registry.Open(e.dir); err != nil {
		e.close()
		return e, err
	}
	srv := webapi.NewServer(1)
	if _, err := srv.UseRegistry(e.reg); err != nil {
		e.close()
		return e, err
	}
	e.ts = httptest.NewServer(srv.Handler())
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	return e, nil
}

// runIngestQuery is the only workload on the pcap reader, flow assembler
// and columnar store, and no dgan code runs. The write phase repeats
// "capture start to queryable store" (one op per pass, its work units the
// capture's packets) for the first writeShare of the timed phase; the read
// phase then sends one closed-loop client's seeded query mix (one op per
// query; p50_ms and tail_ms are query latencies) against the last store.
func runIngestQuery(r *run) error {
	e, err := timeSetups(r, func() (ingestEnv, error) { return setupIngest(r) }, ingestEnv.close)
	if err != nil {
		return err
	}
	defer e.close()

	before := r.beginPhase()
	start := time.Now()
	writeEnd := start.Add(time.Duration(r.p.writeShare * r.p.seconds * float64(time.Second)))
	var rates, cpus, pcapRead, assemble, storeWrite []float64
	var last ingest.Stats
	for i := int64(1); i == 1 || time.Now().Before(writeEnd); i++ {
		// Each pass starts from a collected heap, so the previous pass's
		// garbage does not land on this one.
		runtime.GC()
		c0 := cpuTime()
		op := r.tr.root("op.ingest", i)
		st, ph, err := ingestPass(r, op, e)
		d := op.end()
		cpu := cpuTime() - c0
		r.check(err)
		if err != nil {
			continue
		}
		last = st
		rates = append(rates, float64(e.packets)/d.Seconds())
		cpus = append(cpus, cpu.Seconds())
		pcapRead = append(pcapRead, ph[0])
		assemble = append(assemble, ph[1])
		storeWrite = append(storeWrite, ph[2])
	}
	if len(rates) == 0 {
		return fmt.Errorf("no ingest pass succeeded")
	}
	r.setE2E("work_per_s", median(rates))
	r.setE2E("cpu_ms_per_unit", 1000*median(cpus)/float64(e.packets))
	r.note("ingest_passes", len(rates))
	r.note("ingest_pkts_per_s", rates)

	runtime.GC() // the write phase's garbage is not the read phase's
	str, err := e.reg.OpenStore(captureID)
	if err != nil {
		return fmt.Errorf("open ingested store: %w", err)
	}
	lat, err := queryPhase(r, e, str, start.Add(time.Duration(r.p.seconds*float64(time.Second))))
	if err != nil {
		return err
	}
	after := r.endPhase()
	r.setE2E("p50_ms", median(lat))
	r.setE2E("tail_ms", r.tail(lat, 95))
	r.note("queries", len(lat))

	r.recordCounters(before, after, 0)
	r.setLayer("ingest.flows_emitted", float64(last.FlowsEmitted))
	r.setLayer("ingest.evicted", float64(last.EvictedIdle+last.EvictedTeardown+last.EvictedCapacity))
	if rec, err := e.reg.Job(captureID); err == nil {
		r.setLayer("store.bytes_per_row", ratio(float64(rec.TraceSize), float64(rec.TraceRows)))
	}
	if r.tr != nil {
		r.setLayer("trace.pcap_read_s", median(pcapRead))
		r.setLayer("ingest.assemble_s", median(assemble))
		r.setLayer("store.write_s", median(storeWrite))
		r.setLayer("store.count_ms", r.tr.meanMS("store.count"))
		r.setLayer("store.query_flows_ms", r.tr.meanMS("store.query_flows"))
		r.setLayer("store.top_talkers_ms", r.tr.meanMS("store.top_talkers"))
		r.setLayer("store.port_counts_ms", r.tr.meanMS("store.port_counts"))
		r.setLayer("webapi.query_residual_ms", r.tr.opResidualMS("op.query"))
	}
	return nil
}

// ingestPass takes the capture from its first byte to a queryable store in
// the registry and checks the counts. Untraced, it streams the capture
// through Assembler.IngestReader; traced, it splits that into the pcap
// decode, the flow assembly and the store write, one span each, and
// returns their times in seconds.
func ingestPass(r *run, op *active, e ingestEnv) (ingest.Stats, [3]float64, error) {
	var ph [3]float64
	a := ingest.New(ingest.Config{})
	if r.tr == nil {
		if err := a.IngestReader(bytes.NewReader(e.pcap)); err != nil {
			return ingest.Stats{}, ph, fmt.Errorf("ingest: %w", err)
		}
		a.Flush()
	} else {
		s := op.child("trace.pcap_read")
		decoded, err := decodeCapture(e.pcap)
		ph[0] = s.end().Seconds()
		if err != nil {
			return ingest.Stats{}, ph, err
		}
		s = op.child("ingest.assemble")
		a.AddAll(decoded, 1)
		a.Flush()
		ph[1] = s.end().Seconds()
	}
	var rows int64
	s := op.child("store.write")
	status, _ := json.Marshal(map[string]string{"id": captureID, "state": "done"})
	err := e.reg.PutJobStore(registry.JobRecord{ID: captureID, State: "done", Status: status}, func(dir string) error {
		var err error
		rows, err = a.WriteFlowStore(dir, store.Options{})
		return err
	})
	ph[2] = s.end().Seconds()
	st := a.Stats()
	switch {
	case err != nil:
		return st, ph, fmt.Errorf("store: %w", err)
	case st.PacketsParsed != e.packets:
		return st, ph, fmt.Errorf("ingest: parsed %d packets, fed %d", st.PacketsParsed, e.packets)
	case rows != st.FlowsEmitted:
		return st, ph, fmt.Errorf("store: %d rows, %d flows emitted", rows, st.FlowsEmitted)
	}
	return st, ph, nil
}

// decodeCapture reads every packet of a capture with the pcap reader.
func decodeCapture(capture []byte) ([]trace.RawPacket, error) {
	pr, err := trace.NewPCAPReader(bytes.NewReader(capture))
	if err != nil {
		return nil, fmt.Errorf("pcap: %w", err)
	}
	var out []trace.RawPacket
	for {
		rp, err := pr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("pcap: %w", err)
		}
		out = append(out, rp)
	}
}

// query is one request of the read-phase mix over a time window.
type query struct {
	agg     string // "", count, talkers or ports
	dstPort string // set for row queries
	from    int64
	to      int64
}

// queryKinds is the read-phase mix: rows filtered by destination port, and
// the three aggregations.
var queryKinds = []string{"", "talkers", "ports", "count"}

// queryPhase sends seeded queries over random 5% time windows until
// deadline, checking each reply against the same call made directly on the
// store, and returns the HTTP latencies in ms.
func queryPhase(r *run, e ingestEnv, str *store.Store, deadline time.Time) ([]float64, error) {
	ports, _, err := str.PortCounts(store.Filter{}, 16)
	if err != nil || len(ports) == 0 {
		return nil, fmt.Errorf("list destination ports: %v", err)
	}
	lo, hi := str.TimeRange()
	span := hi - lo
	rng := rand.New(rand.NewSource(r.seed))
	var lat []float64
	for i := int64(1); i == 1 || time.Now().Before(deadline); i++ {
		from := lo + int64(rng.Float64()*0.95*float64(span))
		q := query{agg: queryKinds[rng.Intn(len(queryKinds))], from: from, to: from + span/20}
		if q.agg == "" {
			q.dstPort = ports[rng.Intn(len(ports))].Key
		}
		op := r.tr.root("op.query", i)
		body, status, err := e.get(q)
		d := op.end()
		if err == nil {
			err = checkQuery(op, str, q, body, status)
		}
		r.check(err)
		if err == nil {
			lat = append(lat, ms(d))
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no query succeeded")
	}
	return lat, nil
}

func (e ingestEnv) get(q query) ([]byte, int, error) {
	v := url.Values{}
	v.Set("from", strconv.FormatInt(q.from, 10))
	v.Set("to", strconv.FormatInt(q.to, 10))
	if q.agg != "" {
		v.Set("agg", q.agg)
	} else {
		v.Set("filter", "dst_port="+q.dstPort)
	}
	resp, err := e.client.Get(e.ts.URL + "/api/v1/traces/" + captureID + "/query?" + v.Encode())
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// queryReply mirrors the fields of the query endpoint's reply that the
// check compares.
type queryReply struct {
	Rows    int64          `json:"rows"`
	Stats   store.Stats    `json:"stats"`
	Flows   []flowRow      `json:"flows,omitempty"`
	Buckets []store.Talker `json:"buckets,omitempty"`
}

type flowRow struct {
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

// checkQuery requires a 200 whose reply equals the same query made
// directly on the store (rows, buckets and scan statistics); the direct
// call is the query's replayed store span.
func checkQuery(op *active, str *store.Store, q query, body []byte, status int) error {
	if status != http.StatusOK {
		return fmt.Errorf("query %+v: HTTP %d: %.200s", q, status, body)
	}
	var got queryReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("query %+v: decode reply: %w", q, err)
	}
	want, err := directQuery(op, str, q)
	if err != nil {
		return fmt.Errorf("query %+v: direct store call: %w", q, err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("query %+v: HTTP reply differs from the direct store call", q)
	}
	return nil
}

func directQuery(op *active, str *store.Store, q query) (queryReply, error) {
	var out queryReply
	var err error
	flt := store.Filter{}.Window(q.from, q.to)
	switch q.agg {
	case "":
		port, perr := strconv.ParseUint(q.dstPort, 10, 16)
		if perr != nil {
			return out, perr
		}
		p := uint16(port)
		flt.DstPort = &p
		s := op.replay("store.query_flows")
		var recs []trace.FlowRecord
		recs, out.Stats, err = str.QueryFlows(flt, 1000)
		s.end()
		out.Rows = int64(len(recs))
		for _, fr := range recs {
			out.Flows = append(out.Flows, flowRow{
				StartUs: fr.Start, DurationUs: fr.Duration,
				SrcIP: fr.Tuple.SrcIP.String(), DstIP: fr.Tuple.DstIP.String(),
				SrcPort: fr.Tuple.SrcPort, DstPort: fr.Tuple.DstPort,
				Proto: uint8(fr.Tuple.Proto), Packets: fr.Packets,
				Bytes: fr.Bytes, Label: fr.Label.String(),
			})
		}
	case "count":
		s := op.replay("store.count")
		out.Rows, out.Stats, err = str.Count(flt)
		s.end()
	case "talkers":
		s := op.replay("store.top_talkers")
		out.Buckets, out.Stats, err = str.TopTalkers(flt, 10)
		s.end()
		out.Rows = out.Stats.RowsMatched
	case "ports":
		s := op.replay("store.port_counts")
		out.Buckets, out.Stats, err = str.PortCounts(flt, 10)
		s.end()
		out.Rows = out.Stats.RowsMatched
	}
	if len(out.Buckets) == 0 {
		out.Buckets = nil
	}
	return out, err
}
