package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio returns a/b, or 0 when b is 0 (a ratio with no base).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tail reports the p-th percentile of latencies and notes how many samples
// lie beyond it; a tail needs at least ten samples beyond it to mean
// anything, and the note says when a run fell short.
func (r *run) tail(lat []float64, p float64) float64 {
	beyond := float64(len(lat)) * (100 - p) / 100
	r.note("tail_percentile", p)
	r.note("tail_samples_beyond", beyond)
	r.note("latency_samples", len(lat))
	if p < 100 && beyond < 10 {
		r.note("tail_warning", fmt.Sprintf("only %.1f samples beyond p%g", beyond, p))
	}
	return percentile(lat, p)
}

// timeSetups runs setup at least r.p.setupReps times, and more while the
// set-ups so far took under r.p.setupBudget seconds (cheap set-ups are
// noisy, so they are repeated more), and
// reports the median wall time as setup_s. Each set-up but the last is
// released at once; the last one's environment is returned for the timed
// phase.
func timeSetups[E any](r *run, setup func() (E, error), release func(E)) (E, error) {
	var env E
	var times []float64
	for len(times) < r.p.setupReps || (sum(times) < r.p.setupBudget && len(times) < maxSetups) {
		if len(times) > 0 {
			release(env)
			runtime.GC()
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	r.setE2E("setup_s", median(times))
	r.note("setup_runs", len(times))
	return env, nil
}

const maxSetups = 50

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler tracks the peak of the memory the Go runtime holds from the
// OS (everything it mapped, less what it released back) while it runs.
// Both it and the heap left live after the phase swing with GC timing
// (peak 40 vs 77 MB, live 1.7 vs 7.7 MB between runs of serve_small), so
// neither is bounded.
type memSampler struct {
	stop, done chan struct{}
	peak       uint64
}

// memSamplePeriod is short next to the shortest op's allocation burst.
const memSamplePeriod = 5 * time.Millisecond

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		t := time.NewTicker(memSamplePeriod)
		defer t.Stop()
		for {
			metrics.Read(samples)
			if held := samples[0].Value.Uint64() - samples[1].Value.Uint64(); held > s.peak {
				s.peak = held
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stopMB stops the sampler and returns the peak in MiB.
func (s *memSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}

// liveHeapMB collects garbage and returns the heap still reachable, in
// MiB: what the system keeps in memory between operations.
func liveHeapMB() float64 {
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// counters captures the program's own counters and the Go runtime's
// memory statistics at one instant, so a timed phase can report deltas.
type counters struct {
	tel telemetry.Snapshot
	mem runtime.MemStats
}

func readCounters() counters {
	var c counters
	c.tel = telemetry.Default.Snapshot()
	runtime.ReadMemStats(&c.mem)
	return c
}

// beginPhase starts the timed phase's memory sampler from a collected
// heap and returns the counters at its start.
func (r *run) beginPhase() counters {
	debug.FreeOSMemory()
	r.mem = startMemSampler()
	return readCounters()
}

// endPhase reports the phase's memory and returns the counters at its end.
func (r *run) endPhase() counters {
	after := readCounters()
	r.setE2E("peak_mem_mb", r.mem.stopMB())
	r.setE2E("live_heap_mb", liveHeapMB())
	return after
}

// delta is the change of one telemetry counter between two readings.
func (c counters) delta(since counters, name string) float64 {
	return float64(c.tel.Counters[name] - since.tel.Counters[name])
}

// recordCounters reports the counter deltas every workload shares, plus
// the base counts of every ratio derived from them.
func (r *run) recordCounters(before, after counters, records float64) {
	ops := float64(r.attempted.Load())
	r.setLayer("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	r.setLayer("runtime.gc_count", float64(after.mem.NumGC-before.mem.NumGC))
	r.setLayer("runtime.alloc_mb_per_op", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/(1<<20), ops))

	q, b := after.delta(before, "ip2vec.nearest.queries"), after.delta(before, "ip2vec.nearest.batches")
	r.setLayer("ip2vec.nearest.queries", q)
	r.setLayer("ip2vec.nearest.batches", b)
	r.setLayer("ip2vec.nearest.batch_size", ratio(q, b))

	hits, misses := after.delta(before, "core.decode.cache.hits"), after.delta(before, "core.decode.cache.misses")
	r.setLayer("core.decode.cache_hits", hits)
	r.setLayer("core.decode.cache_misses", misses)
	r.setLayer("core.decode.cache_hit_ratio", ratio(hits, hits+misses))

	r.setLayer("dgan.train.steps", after.delta(before, "dgan.train.steps"))
	samples := after.delta(before, "dgan.generate.samples") + after.delta(before, "dgan.infer.samples")
	r.setLayer("dgan.samples_per_1k_records", ratio(1000*samples, records))
	r.note("generated_records", records)
	r.note("dgan_samples", samples)

	fr, fb := after.delta(before, "webapi.fast.requests"), after.delta(before, "webapi.fast.batches")
	ch, cm := after.delta(before, "webapi.fast.cache.hits"), after.delta(before, "webapi.fast.cache.misses")
	r.setLayer("webapi.fast.requests", fr)
	r.setLayer("webapi.fast.batches", fb)
	r.setLayer("webapi.fast.batch_size", ratio(fr, fb))
	r.setLayer("webapi.fast.cache_hit_ratio", ratio(ch, ch+cm))
	r.note("webapi_fast_cache_hits", ch)
	r.note("webapi_fast_cache_misses", cm)

	nq := after.delta(before, "store.queries")
	read, skipped := after.delta(before, "store.blocks.read"), after.delta(before, "store.blocks.skipped")
	r.setLayer("store.queries", nq)
	r.setLayer("store.blocks_skipped_ratio", ratio(skipped, read+skipped))
	r.setLayer("store.rows_scanned_per_query", ratio(after.delta(before, "store.rows.scanned"), nq))
	r.setLayer("store.bytes_read_per_query", ratio(after.delta(before, "store.bytes.read"), nq))
	r.note("store_blocks_read", read)
	r.note("store_blocks_skipped", skipped)
}
