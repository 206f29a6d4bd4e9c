// Command e2ebench is the repository's end-to-end benchmark. One process
// runs one named workload against the in-repo system, checks every output
// it receives, and prints its metrics; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the bounded end-to-end ones (endToEnd
// below; the other end-to-end metrics go to standard error and the record);
// with --trace 1 the same workload runs with spans recorded around every
// call the benchmark makes into a layer's public functions, and the
// metrics are the per-layer ones (perLayer). All inputs are generated
// from --seed by internal/datasets. A full record of each run (provenance,
// every metric, base counts, failures and spans) is written under --out.
//
// Workloads:
//
//	train        chunked flow-GAN training, the paper's Fig. 4 measurement
//	serve_small  HTTP generate, 200 records, deterministic float64 path
//	serve_large  HTTP generate, 10000 records, float32 fast path
//	ingest_query pcap ingest into a columnar store, then HTTP store queries
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// metricDef names one metric and its unit. The names and units here must
// match BENCHMARK.json; the package tests check that.
type metricDef struct {
	name, unit string
}

// endToEnd are the bounded metrics a user of the system sees: set-up time
// and the CPU cost of one unit of work ("op" and "work unit" are defined
// per workload in README.md). The names and units must match
// BENCHMARK.json; the package tests check that.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_unit", "ms"},
}

// reported are end-to-end metrics every run prints and records but that
// are not bounded: on a shared 2-vCPU machine their run-to-run spread
// (interquartile range up to 43% of the median for serve_small's p50 over
// ten runs) is wider than any bound a regression gate can use.
var reported = []metricDef{
	{"work_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"live_heap_mb", "MB"},
	{"peak_mem_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer that a workload never
// calls reports 0.
var perLayer = []metricDef{
	{"unattributed_frac", "frac"},
	{"traced.work_per_s", "1/s"},
	{"traced.p50_ms", "ms"},
	{"traced.tail_ms", "ms"},
	{"runtime.live_heap_mb", "MB"},
	{"runtime.peak_mem_mb", "MB"},
	{"ops", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_count", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"ip2vec.fit_s", "s"},
	{"ip2vec.nearest.queries", "count"},
	{"ip2vec.nearest.batches", "count"},
	{"ip2vec.nearest.batch_size", "count"},
	{"core.prepare_s", "s"},
	{"core.seed_chunk_s", "s"},
	{"core.finetune_chunk_s.sum", "s"},
	{"core.finetune_chunk_s.max", "s"},
	{"core.assemble_s", "s"},
	{"core.load_ms", "ms"},
	{"core.generate_ms", "ms"},
	{"core.decode.cache_hits", "count"},
	{"core.decode.cache_misses", "count"},
	{"core.decode.cache_hit_ratio", "frac"},
	{"dgan.train.steps", "count"},
	{"dgan.step_ms", "ms"},
	{"dgan.samples_per_1k_records", "count"},
	{"orchestrator.fanout_eff", "frac"},
	{"conformance.fidelity_jsd", "jsd"},
	{"conformance.fidelity_emd", "emd"},
	{"registry.read_ms", "ms"},
	{"store.write_s", "s"},
	{"trace.encode_ms", "ms"},
	{"trace.response_kb", "KB"},
	{"trace.pcap_read_s", "s"},
	{"ingest.assemble_s", "s"},
	{"ingest.flows_emitted", "count"},
	{"ingest.evicted", "count"},
	{"store.count_ms", "ms"},
	{"store.query_flows_ms", "ms"},
	{"store.top_talkers_ms", "ms"},
	{"store.port_counts_ms", "ms"},
	{"store.queries", "count"},
	{"store.blocks_skipped_ratio", "frac"},
	{"store.rows_scanned_per_query", "count"},
	{"store.bytes_read_per_query", "B"},
	{"store.bytes_per_row", "B"},
	{"webapi.residual_ms", "ms"},
	{"webapi.fast.requests", "count"},
	{"webapi.fast.batches", "count"},
	{"webapi.fast.batch_size", "count"},
	{"webapi.fast.cache_hit_ratio", "frac"},
	{"webapi.query_residual_ms", "ms"},
}

// params sizes a workload. fullParams is what the command runs; the tests
// shrink it.
type params struct {
	seconds     float64
	setupReps   int
	setupBudget float64

	// train, and the model the serve workloads are set up with.
	trainRecords  int
	publicPackets int
	trainCfg      core.Config
	serveCfg      core.Config

	// serve_*: closed-loop clients and per-request record counts.
	clients    int
	smallCount int
	largeCount int
	// poolRecords caps the fast-path records pooled for the conformance
	// check against a float64 reference of the same size.
	poolRecords int

	// ingest_query: packets in the capture, and the share of the timed
	// phase spent ingesting before the query phase starts.
	capturePackets int
	writeShare     float64
}

func fullParams(seconds float64) params {
	serve := core.DefaultConfig()
	// Serving cost depends on the model's shape, not on how long it
	// trained, so the served model trains with 40/20 steps.
	serve.SeedSteps, serve.FineTuneSteps = 40, 20
	return params{
		seconds:        seconds,
		setupReps:      3,
		setupBudget:    1,
		trainRecords:   3000,
		publicPackets:  5000,
		trainCfg:       core.DefaultConfig(),
		serveCfg:       serve,
		clients:        2,
		smallCount:     200,
		largeCount:     10000,
		poolRecords:    20000,
		capturePackets: 1_000_000,
		writeShare:     0.5,
	}
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(*run) error{
	"train":        runTrain,
	"serve_small":  runServeSmall,
	"serve_large":  runServeLarge,
	"ingest_query": runIngestQuery,
}

// run is the state of one benchmark run: inputs, counters of attempted
// and failed operations, the tracer (nil when untraced), and the metrics
// the workload fills in.
type run struct {
	p        params
	workload string
	seed     int64
	gitSHA   string
	tr       *tracer
	mem      *memSampler

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string
	e2e      map[string]float64
	layer    map[string]float64
	notes    map[string]any
}

func newRun(p params, workload string, seed int64, traced bool) *run {
	r := &run{
		p: p, workload: workload, seed: seed,
		e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]any{},
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// check records one attempted operation; a non-nil err counts it failed.
func (r *run) check(err error) {
	r.attempted.Add(1)
	if err == nil {
		return
	}
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *run) setE2E(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.e2e[name] = v
}

func (r *run) setLayer(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layer[name] = v
}

func (r *run) note(name string, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes[name] = v
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the result line; a metric the workload did not set is an
// error, since every run must report every metric.
func (r *run) result() (resultLine, error) {
	defs, vals := endToEnd, r.e2e
	if r.tr != nil {
		defs, vals = perLayer, r.layer
	}
	out := resultLine{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	out.Correct = out.Attempted > 0 && out.Failed == 0
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("workload %s did not report %v", r.workload, missing)
	}
	return out, nil
}

// provenance identifies the machine, toolchain and source of a run.
func provenance(gitSHA string) map[string]any {
	return map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_sha":    gitSHA,
	}
}

// record is the full per-run document written under --out.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	Seconds    float64            `json:"seconds"`
	Provenance map[string]any     `json:"provenance"`
	Result     resultLine         `json:"result"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Notes      map[string]any     `json:"notes"`
	Failures   []string           `json:"failures,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

func (r *run) writeRecord(dir string, res resultLine) error {
	rec := record{
		Workload: r.workload, Seed: r.seed, Traced: r.tr != nil, Seconds: r.p.seconds,
		Provenance: provenance(r.gitSHA), Result: res,
		EndToEnd: r.e2e, Notes: r.notes, Failures: r.failures,
	}
	if r.tr != nil {
		rec.PerLayer = r.layer
		rec.Spans = r.tr.spans
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", r.workload, r.seed, r.tr != nil)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// printHuman writes the provenance, notes and every metric by name with
// its unit to standard error.
func (r *run) printHuman(res resultLine) {
	fmt.Fprintf(os.Stderr, "workload=%s seed=%d traced=%v provenance=%v\n", r.workload, r.seed, r.tr != nil, provenance(r.gitSHA))
	keys := make([]string, 0, len(r.notes))
	for k := range r.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  note %s = %v\n", k, r.notes[k])
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), reported...) {
		if v, ok := r.e2e[d.name]; ok {
			fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	if r.tr != nil {
		for _, d := range perLayer {
			fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", d.name, r.layer[d.name], d.unit)
		}
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(os.Stderr, "  %-34s %14.4f (%d of %d)\n", "fail_frac", frac, res.Failed, res.Attempted)
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", f)
	}
}

func main() {
	workload := flag.String("workload", "", "workload name: train, serve_small, serve_large or ingest_query")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for the per-run record")
	gitSHA := flag.String("git-sha", "unknown", "source revision, recorded with the results")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	r := newRun(fullParams(*seconds), *workload, *seed, *trace == 1)
	r.gitSHA = *gitSHA
	res, err := execute(r, fn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	r.printHuman(res)
	if err := r.writeRecord(*out, res); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: write record: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs the workload and adds the metrics every workload shares.
func execute(r *run, fn func(*run) error) (resultLine, error) {
	if err := fn(r); err != nil {
		return resultLine{}, err
	}
	if r.tr != nil {
		r.setLayer("ops", float64(r.attempted.Load()))
		r.setLayer("unattributed_frac", r.tr.unattributed())
		// The wall-clock metrics with tracing on; their difference from the
		// untraced run is the tracing overhead.
		for _, m := range []string{"work_per_s", "p50_ms", "tail_ms"} {
			r.setLayer("traced."+m, r.e2e[m])
		}
		r.setLayer("runtime.live_heap_mb", r.e2e["live_heap_mb"])
		r.setLayer("runtime.peak_mem_mb", r.e2e["peak_mem_mb"])
		var idle []string
		for _, d := range perLayer {
			if _, ok := r.layer[d.name]; !ok {
				r.layer[d.name] = 0
				idle = append(idle, d.name)
			}
		}
		r.note("layers_not_called", idle)
	}
	res, err := r.result()
	if err != nil {
		return res, err
	}
	if res.Attempted == 0 {
		return res, errors.New("no operation was attempted")
	}
	return res, nil
}
