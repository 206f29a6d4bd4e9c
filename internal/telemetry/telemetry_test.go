package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("re-registration must return the same handle")
	}
	// Disabled registries record nothing.
	r.SetEnabled(false)
	c.Inc()
	if got := c.Value(); got != 5 {
		t.Fatalf("disabled counter advanced to %d", got)
	}
	r.SetEnabled(true)
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("re-enabled counter = %d, want 6", got)
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tm *Timer
	var s *Series
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(2)
	tm.Observe(time.Millisecond)
	s.Record(1, 2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tm.Count() != 0 || s.Len() != 0 {
		t.Fatal("nil handles must read as zero")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("x")
	g.Set(2.5)
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %g, want -1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, x := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(x)
	}
	snap := r.Snapshot().Histograms["lat"]
	// ≤1: 0.5 and 1.0; ≤2: 1.5; ≤4: 3; overflow: 100.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if snap.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, snap.Buckets[i], w, snap)
		}
	}
	if snap.Count != 5 || snap.Sum != 106 {
		t.Fatalf("count/sum = %d/%g, want 5/106", snap.Count, snap.Sum)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Fatalf("ExpBuckets = %v", exp)
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("phase")
	sw := tm.Start()
	d := sw.Stop()
	tm.Observe(2 * time.Millisecond)
	if tm.Count() != 2 {
		t.Fatalf("timer count = %d, want 2", tm.Count())
	}
	snap := r.Snapshot().Timers["phase"]
	if snap.TotalMs < 2 || d < 0 {
		t.Fatalf("timer total = %vms", snap.TotalMs)
	}
	if snap.Count != 2 || snap.MaxMs <= 0 || snap.MeanMs <= 0 {
		t.Fatalf("timer snapshot = %+v", snap)
	}
}

func TestSeries(t *testing.T) {
	r := NewRegistry()
	s := r.Series("loss")
	s.Record(1, 0.5)
	s.Record(2, 0.25)
	pts := s.Points()
	if len(pts) != 2 || pts[1] != (Point{Step: 2, Value: 0.25}) {
		t.Fatalf("series = %+v", pts)
	}
	// Points returns a copy.
	pts[0].Value = 99
	if s.Points()[0].Value != 0.5 {
		t.Fatal("Points must copy")
	}
}

func TestResetClearsEverything(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1})
	tm := r.Timer("t")
	s := r.Series("s")
	c.Inc()
	g.Set(3)
	h.Observe(0.5)
	tm.Observe(time.Second)
	s.Record(1, 1)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || tm.Count() != 0 || s.Len() != 0 {
		t.Fatal("Reset must zero all metrics")
	}
	snap := r.Snapshot()
	if len(snap.Gauges) != 0 {
		t.Fatalf("reset gauge still snapshotted: %+v", snap.Gauges)
	}
	// Handles remain usable after reset.
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("counter unusable after Reset")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs").Add(3)
	r.Gauge("eps").Set(1.5)
	r.Histogram("depth", []float64{1, 2}).Observe(1.5)
	r.Timer("train").Observe(time.Second)
	r.Series("loss").Record(1, -0.25)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["jobs"] != 3 || back.Gauges["eps"] != 1.5 {
		t.Fatalf("round trip lost data: %s", data)
	}
	if len(back.Series["loss"]) != 1 || back.Series["loss"][0].Value != -0.25 {
		t.Fatalf("series lost: %s", data)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("gen.lots").Add(7)
	r.Gauge("dp.epsilon").Set(2.25)
	r.Histogram("gen.depth", []float64{1, 2}).Observe(1.5)
	r.Timer("core.train").Observe(1500 * time.Millisecond)
	r.Series("loss.chunk0").Record(5, 0.125)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"gen_lots 7",
		"dp_epsilon 2.25",
		`gen_depth_bucket{le="2"} 1`,
		`gen_depth_bucket{le="+Inf"} 1`,
		"gen_depth_count 1",
		"core_train_seconds_count 1",
		"core_train_seconds_sum 1.5",
		"loss_chunk0_last 0.125",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"a.b-c":   "a_b_c",
		"1bad":    "_1bad",
		"ok_name": "ok_name",
		"x.y.z9":  "x_y_z9",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestConcurrentRecording hammers every metric type from many goroutines;
// run under -race (make test-telemetry) this is the registry's
// thread-safety proof, and the totals check catches lost updates.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{0, 1, 2, 3, 4, 5, 6, 7})
	tm := r.Timer("t")
	s := r.Series("s")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 10))
				tm.Observe(time.Microsecond)
				s.Record(int64(i), float64(w))
				// Concurrent snapshotting must be safe too.
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter lost updates: %d", c.Value())
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram lost updates: %d", h.Count())
	}
	var sum int64
	snap := r.Snapshot().Histograms["h"]
	for _, b := range snap.Buckets {
		sum += b
	}
	if sum != snap.Count {
		t.Fatalf("bucket sum %d != count %d", sum, snap.Count)
	}
	if s.Len() != workers*per {
		t.Fatalf("series lost points: %d", s.Len())
	}
}

// TestHotPathZeroAllocs is the allocation contract of the generation hot
// path: counter increments, gauge sets, and histogram observations must
// not allocate at all, enabled or disabled.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", ExpBuckets(1, 2, 16))
	for _, enabled := range []bool{true, false} {
		r.SetEnabled(enabled)
		if n := testing.AllocsPerRun(1000, func() {
			c.Inc()
			c.Add(3)
			g.Set(1.5)
			h.Observe(4.5)
		}); n != 0 {
			t.Fatalf("hot path allocates %.1f allocs/op (enabled=%v), want 0", n, enabled)
		}
	}
}
