package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"repro/internal/datasets"
)

// smokeParams shrinks every workload to a fraction of a second.
func smokeParams() params {
	p := fullParams(0.3)
	p.setupReps, p.setupBudget = 1, 0
	p.trainRecords, p.publicPackets = 300, 1200
	// The shape internal/conformance pins the fast path with: a smaller or
	// shorter-trained model's fast path need not conform.
	p.trainCfg.Chunks, p.trainCfg.MaxLen, p.trainCfg.Hidden = 2, 4, 24
	p.trainCfg.SeedSteps, p.trainCfg.FineTuneSteps, p.trainCfg.EmbedEpochs = 60, 20, 2
	p.serveCfg = p.trainCfg
	p.smallCount = 20
	// The conformance thresholds are calibrated for 3000-record draws, so
	// the fast path's warm-up csv reply alone fills the pool.
	p.largeCount, p.poolRecords = 3000, 3000
	p.capturePackets = 20000
	return p
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json lists.
func benchmarkMetrics(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestSmokeEveryWorkloadReportsEveryMetric runs every workload briefly,
// untraced and traced, and requires a correct run that reports exactly the
// metrics BENCHMARK.json names, with their units.
func TestSmokeEveryWorkloadReportsEveryMetric(t *testing.T) {
	e2e, layer := benchmarkMetrics(t)
	for name, fn := range workloads {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layer
			}
			r := newRun(smokeParams(), name, 7, traced)
			res, err := execute(r, fn)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s traced=%v: %d of %d failed: %v", name, traced, res.Failed, res.Attempted, r.failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m, got, unit)
				}
			}
			if !traced {
				for _, d := range append(append([]metricDef{}, endToEnd...), reported...) {
					if r.e2e[d.name] == 0 {
						t.Errorf("%s: end-to-end metric %s is 0 or missing", name, d.name)
					}
				}
			}
		}
	}
}

// TestDamagedRepliesCountAsFailed shows the reply checks have teeth: a
// non-200, a truncated body and an altered body each count as a failed
// operation, while an intact reply passes.
func TestDamagedRepliesCountAsFailed(t *testing.T) {
	gen := datasets.UGR16(40, 3)
	for _, format := range formats {
		var buf bytes.Buffer
		if err := writers[format](&buf, gen); err != nil {
			t.Fatal(err)
		}
		body := buf.Bytes()
		n := len(gen.Records)
		for _, fast := range []bool{false, true} {
			sc := newServeCheck(n, fast, 0)
			if err := sc.response(format, body, http.StatusOK, true); err != nil {
				t.Fatalf("%s fast=%v: intact warm-up reply rejected: %v", format, fast, err)
			}
			r := newRun(smokeParams(), "serve_small", 1, false)
			r.check(sc.response(format, body, http.StatusOK, false))
			if r.failed.Load() != 0 {
				t.Fatalf("%s fast=%v: intact reply counted as failed: %v", format, fast, r.failures)
			}
			damaged := map[string][]byte{"truncated": body[:len(body)*2/3]}
			if !fast {
				// Only the deterministic path promises exact bytes, so only
				// there must an altered-but-decodable body be caught.
				altered := append([]byte(nil), body...)
				altered[len(altered)-2] ^= 0x01
				damaged["altered"] = altered
			}
			for what, b := range damaged {
				before := r.failed.Load()
				r.check(sc.response(format, b, http.StatusOK, false))
				if r.failed.Load() != before+1 {
					t.Errorf("%s fast=%v: %s reply not counted as failed", format, fast, what)
				}
			}
			before := r.failed.Load()
			r.check(sc.response(format, []byte(`{"error":"boom"}`), http.StatusInternalServerError, false))
			if r.failed.Load() != before+1 {
				t.Errorf("%s fast=%v: HTTP 500 not counted as failed", format, fast)
			}
		}
	}
}

// TestSelfTime checks span attribution: nested children subtract the
// interval they cover (overlaps once), replayed children their duration.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "op.a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "x", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "y", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "z", Start: 60, End: 70},
		{ID: 5, Name: "op.b", Start: 200, End: 250},
		{ID: 6, Parent: 5, Name: "w", Start: 260, End: 280, Replay: true},
	}}
	self := tr.selfTimes()
	if self[1] != 50 || self[5] != 30 || self[2] != 30 {
		t.Fatalf("self times = %v, want op.a 50, op.b 30, x 30", self)
	}
	if got := tr.unattributed(); got != 80.0/150 {
		t.Fatalf("unattributed = %v, want %v", got, 80.0/150)
	}
}
