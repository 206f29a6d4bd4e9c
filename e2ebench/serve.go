package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/webapi"
)

// modelName is the registry name of the served model.
const modelName = "bench-flow"

// formats is the egress rotation every serve client follows.
var formats = []string{"csv", "netflow5", "netflow9", "ipfix"}

var (
	readers = map[string]func(io.Reader) (*trace.FlowTrace, error){
		"csv":      trace.ReadFlowCSV,
		"netflow5": trace.ReadNetFlowV5,
		"netflow9": trace.ReadNetFlowV9,
		"ipfix":    trace.ReadIPFIX,
	}
	writers = map[string]func(io.Writer, *trace.FlowTrace) error{
		"csv":      trace.WriteFlowCSV,
		"netflow5": trace.WriteNetFlowV5,
		"netflow9": trace.WriteNetFlowV9,
		"ipfix":    trace.WriteIPFIX,
	}
)

// runServeSmall: 200-record requests on the default deterministic path.
// The per-request container decode and HTTP handling dominate; the
// sampler is light.
func runServeSmall(r *run) error { return runServe(r, r.p.smallCount, false, 99) }

// runServeLarge: 10000-record requests on the float32 fast path. The
// sampler, IP2Vec nearest decode, egress encode and cross-request batching
// dominate; the model is decoded once.
func runServeLarge(r *run) error { return runServe(r, r.p.largeCount, true, 80) }

// serveEnv is a registry holding one trained flow model and a webapi
// server on it.
type serveEnv struct {
	dir    string
	reg    *registry.Registry
	ts     *httptest.Server
	client *http.Client
	framed []byte
}

func (e serveEnv) close() {
	if e.ts != nil {
		e.client.CloseIdleConnections()
		e.ts.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// setupServe trains the served model, stores it in a fresh registry, boots
// the server and warms the timed path with one request per format.
func setupServe(r *run, count int, fast bool, sc *serveCheck) (serveEnv, error) {
	var e serveEnv
	cfg := r.p.serveCfg
	cfg.Seed = r.seed
	syn, err := core.TrainFlowSynthesizer(
		datasets.UGR16(r.p.trainRecords, r.seed), datasets.CAIDAChicago(r.p.publicPackets, r.seed+1), cfg)
	if err != nil {
		return e, fmt.Errorf("train served model: %w", err)
	}
	var model bytes.Buffer
	if err := syn.Save(&model); err != nil {
		return e, fmt.Errorf("save model: %w", err)
	}
	e.framed = model.Bytes()
	if e.dir, err = os.MkdirTemp("", "e2ebench-registry-"); err != nil {
		return e, err
	}
	if e.reg, err = registry.Open(e.dir); err != nil {
		e.close()
		return e, err
	}
	if _, err := e.reg.PutModel(modelName, e.framed); err != nil {
		e.close()
		return e, err
	}
	srv := webapi.NewServer(1)
	if _, err := srv.UseRegistry(e.reg); err != nil {
		e.close()
		return e, err
	}
	e.ts = httptest.NewServer(srv.Handler())
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	for _, f := range formats {
		body, status, err := e.generate(count, f, fast)
		if err == nil {
			err = sc.response(f, body, status, true)
		}
		if err != nil {
			e.close()
			return e, fmt.Errorf("warm-up %s: %w", f, err)
		}
	}
	return e, nil
}

// generate POSTs one generate request and reads the whole reply.
func (e serveEnv) generate(count int, format string, fast bool) ([]byte, int, error) {
	req, err := json.Marshal(webapi.GenerateRequest{Count: count, Format: format, Fast: fast})
	if err != nil {
		return nil, 0, err
	}
	resp, err := e.client.Post(e.ts.URL+"/api/v1/models/"+modelName+"/generate", "application/json", bytes.NewReader(req))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// serveCheck checks generate replies. On the deterministic path every
// reply in a format must equal the warm-up's, which passed the decode
// checks; on the fast path every reply is decoded, and the csv replies are
// pooled for a distributional check.
type serveCheck struct {
	count       int
	fast        bool
	poolRecords int

	mu    sync.Mutex
	first map[string][]byte
	pool  []trace.FlowRecord
}

func newServeCheck(count int, fast bool, poolRecords int) *serveCheck {
	return &serveCheck{count: count, fast: fast, poolRecords: poolRecords, first: map[string][]byte{}}
}

// response checks one reply: status 200 and a body its format's reader
// decodes to exactly count valid records; on the deterministic path a
// reply after the warm-up (warm false) must instead equal the warm-up's
// bytes for its format, which implies the same.
func (sc *serveCheck) response(format string, body []byte, status int, warm bool) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %.200s", format, status, body)
	}
	if !sc.fast && !warm {
		sc.mu.Lock()
		first := sc.first[format]
		sc.mu.Unlock()
		if !bytes.Equal(body, first) {
			return fmt.Errorf("%s: reply differs from the first reply for the same request (not deterministic)", format)
		}
		return nil
	}
	got, err := readers[format](bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%s: decode: %w", format, err)
	}
	if len(got.Records) != sc.count {
		return fmt.Errorf("%s: decoded %d records, want %d", format, len(got.Records), sc.count)
	}
	if v := conformance.FlowViolations(got); len(v) > 0 {
		return fmt.Errorf("%s: invalid records: %v", format, v[0])
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.fast {
		sc.first[format] = body
	} else if format == "csv" && len(sc.pool) < sc.poolRecords {
		sc.pool = append(sc.pool, got.Records[:min(len(got.Records), sc.poolRecords-len(sc.pool))]...)
	}
	return nil
}

// reply is one fast-path reply kept for checking after the timed phase,
// so that decoding it does not count in the phase's CPU time.
type reply struct {
	format string
	body   []byte
	status int
	err    error // a transport or replay error, before the reply checks
}

// replayer re-runs, beside each traced HTTP call, the layer calls the
// server makes for it: registry read, model load (deterministic path
// only; the fast path decodes once), generation, and encode. On the fast
// path generation replays a whole coalesced batch of the size observed so
// far, since a request waits for its batch.
type replayer struct {
	e     serveEnv
	fast  bool
	count int
	snap  *core.FastFlowSynthesizer // per client, fast path only

	reqs0, batches0 int64
	// records counts the records the replays generated.
	records int64
}

var (
	telFastRequests = telemetry.Default.Counter("webapi.fast.requests")
	telFastBatches  = telemetry.Default.Counter("webapi.fast.batches")
)

// replay returns the replayed body, for comparison with the HTTP reply on
// the deterministic path.
func (rp *replayer) replay(op *active, format string) ([]byte, error) {
	s := op.replay("registry.read")
	framed, _, err := rp.e.reg.ModelBytes(modelName)
	s.end()
	if err != nil {
		return nil, err
	}
	var gen *trace.FlowTrace
	if rp.fast {
		k := int(math.Round(ratio(float64(telFastRequests.Value()-rp.reqs0), float64(telFastBatches.Value()-rp.batches0))))
		counts := make([]int, max(k, 1))
		for i := range counts {
			counts[i] = rp.count
		}
		s = op.replay("core.generate")
		gen = rp.snap.GenerateBatch(counts)[0]
		s.end()
		rp.records += int64(len(counts) * rp.count)
	} else {
		s = op.replay("core.load")
		syn, err := core.LoadFlowSynthesizer(bytes.NewReader(framed))
		s.end()
		if err != nil {
			return nil, err
		}
		s = op.replay("core.generate")
		gen = syn.Generate(rp.count)
		s.end()
		rp.records += int64(rp.count)
	}
	var buf bytes.Buffer
	s = op.replay("trace.encode")
	err = writers[format](&buf, gen)
	s.end()
	return buf.Bytes(), err
}

// runServe drives r.p.clients closed-loop clients, each sending its next
// request only after the previous reply arrived, rotating the egress
// format, for the timed phase. One op is one request.
func runServe(r *run, count int, fast bool, tailPct float64) error {
	var sc *serveCheck
	e, err := timeSetups(r, func() (serveEnv, error) {
		sc = newServeCheck(count, fast, r.p.poolRecords)
		return setupServe(r, count, fast, sc)
	}, serveEnv.close)
	if err != nil {
		return err
	}
	defer e.close()

	reps := make([]*replayer, r.p.clients)
	if r.tr != nil {
		for c := range reps {
			reps[c] = &replayer{e: e, fast: fast, count: count}
			if fast {
				syn, err := core.LoadFlowSynthesizer(bytes.NewReader(e.framed))
				if err != nil {
					return err
				}
				reps[c].snap = syn.Fast()
			}
		}
	}

	lat := make([][]float64, r.p.clients)
	kept := make([][]reply, r.p.clients)
	var seq, okReqs, bodyBytes atomic.Int64
	var wg sync.WaitGroup
	before := r.beginPhase()
	for _, rp := range reps {
		if rp != nil {
			rp.reqs0, rp.batches0 = telFastRequests.Value(), telFastBatches.Value()
		}
	}
	c0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(time.Duration(r.p.seconds * float64(time.Second)))
	for c := 0; c < r.p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := seq.Add(1)
				format := formats[(i-1)%int64(len(formats))]
				op := r.tr.root("op.http", i)
				body, status, err := e.generate(count, format, fast)
				d := op.end()
				if err == nil && !fast {
					err = sc.response(format, body, status, false)
				}
				if err == nil && reps[c] != nil {
					var again []byte
					if again, err = reps[c].replay(op, format); err == nil && !fast && !bytes.Equal(again, body) {
						err = fmt.Errorf("%s: replayed layer calls produced different bytes than the server", format)
					}
				}
				if fast {
					kept[c] = append(kept[c], reply{format, body, status, err})
				} else {
					r.check(err)
				}
				if err == nil && status == http.StatusOK {
					lat[c] = append(lat[c], ms(d))
					okReqs.Add(1)
					bodyBytes.Add(int64(len(body)))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed, cpu := time.Since(t0), cpuTime()-c0
	after := r.endPhase()
	for _, replies := range kept {
		for _, rp := range replies {
			if rp.err == nil {
				rp.err = sc.response(rp.format, rp.body, rp.status, false)
			}
			r.check(rp.err)
		}
	}

	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return fmt.Errorf("no request succeeded")
	}
	n := float64(okReqs.Load())
	r.setE2E("work_per_s", n/elapsed.Seconds())
	r.setE2E("cpu_ms_per_unit", 1000*cpu.Seconds()/n)
	r.setE2E("p50_ms", median(all))
	r.setE2E("tail_ms", r.tail(all, tailPct))

	records := float64(count) * n
	for _, rp := range reps {
		if rp != nil {
			records += float64(rp.records)
		}
	}
	if fast {
		jsd, emd, err := poolConformance(e.framed, sc.pool)
		r.check(err)
		r.setLayer("conformance.fidelity_jsd", jsd)
		r.setLayer("conformance.fidelity_emd", emd)
		r.note("pooled_records", len(sc.pool))
	}
	r.recordCounters(before, after, records)
	r.setLayer("trace.response_kb", float64(bodyBytes.Load())/n/1024)
	if r.tr != nil {
		r.setLayer("registry.read_ms", r.tr.meanMS("registry.read"))
		r.setLayer("core.load_ms", r.tr.meanMS("core.load"))
		r.setLayer("core.generate_ms", r.tr.meanMS("core.generate"))
		r.setLayer("trace.encode_ms", r.tr.meanMS("trace.encode"))
		r.setLayer("webapi.residual_ms", r.tr.opResidualMS("op.http"))
	}
	return nil
}

// poolConformance checks the pooled fast-path records against an equally
// large draw from the float64 reference sampler of the same model, at the
// repository's conformance thresholds.
func poolConformance(framed []byte, pool []trace.FlowRecord) (jsd, emd float64, err error) {
	if len(pool) == 0 {
		return 0, 0, fmt.Errorf("fast path: no csv replies pooled for the conformance check")
	}
	syn, err := core.LoadFlowSynthesizer(bytes.NewReader(framed))
	if err != nil {
		return 0, 0, err
	}
	rep := conformance.FlowReport(syn.Generate(len(pool)), &trace.FlowTrace{Records: pool})
	jsd, emd = meanField(rep.JSD), meanField(rep.EMD)
	if v := rep.Check(conformance.DefaultFlowThresholds); len(v) > 0 {
		return jsd, emd, fmt.Errorf("fast path: pooled output diverges from the float64 reference: %v", v)
	}
	return jsd, emd, nil
}
