package telemetry

import (
	"testing"
	"time"
)

// BenchmarkCounterInc shows that incrementing a counter does not
// allocate: `go test -bench Counter -benchmem ./internal/telemetry`
// reports 0 allocs/op (TestHotPathZeroAllocs enforces it).
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.counter")
	r.SetEnabled(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.counter")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench.hist", ExpBuckets(1, 2, 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 1023))
	}
}

func BenchmarkTimerObserve(b *testing.B) {
	r := NewRegistry()
	t := r.Timer("bench.timer")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Observe(time.Microsecond)
	}
}
