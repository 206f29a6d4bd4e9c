package mat

import (
	"math/rand"
	"sync"
	"testing"
)

// forceParallel lowers the dispatch threshold and sets the worker count for
// the duration of a test, restoring the defaults afterwards.
func forceParallel(t *testing.T, workers int) {
	t.Helper()
	SetParallelism(workers)
	SetParallelThreshold(1)
	t.Cleanup(func() {
		SetParallelism(1)
		SetParallelThreshold(0)
	})
}

func randMat(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	m.RandNorm(r, 1)
	return m
}

// TestParallelKernelsBitwiseDeterministic asserts the headline guarantee of
// the parallel layer: every kernel produces bitwise-identical output at any
// parallelism level, including worker counts that do not divide the row
// count evenly. It runs once per kernel set the CPU supports.
func TestParallelKernelsBitwiseDeterministic(t *testing.T) {
	forEachKernelSet(t, testParallelKernelsBitwiseDeterministic)
}

func testParallelKernelsBitwiseDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {16, 33, 9}, {31, 17, 23}, {64, 48, 32}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		at := randMat(r, k, m) // for MulTransA: atᵀ·b is m×n
		bt := randMat(r, n, k) // for MulTransB: a·btᵀ is m×n

		type kernel struct {
			name string
			run  func(dst *Matrix)
			rows int
		}
		kernels := []kernel{
			{"MulInto", func(dst *Matrix) { MulInto(dst, a, b) }, m},
			{"MulTransAInto", func(dst *Matrix) { MulTransAInto(dst, at, b) }, m},
			{"MulTransBInto", func(dst *Matrix) { MulTransBInto(dst, a, bt) }, m},
		}
		for _, kr := range kernels {
			SetParallelism(1)
			SetParallelThreshold(0)
			want := New(kr.rows, n)
			kr.run(want)

			for _, workers := range []int{2, 3, 4, 8} {
				SetParallelism(workers)
				SetParallelThreshold(1)
				got := New(kr.rows, n)
				kr.run(got)
				for i, v := range got.Data {
					if v != want.Data[i] {
						t.Fatalf("%s %dx%dx%d workers=%d: element %d differs: %v != %v",
							kr.name, m, k, n, workers, i, v, want.Data[i])
					}
				}
			}
		}
	}
	SetParallelism(1)
	SetParallelThreshold(0)
}

// TestConcurrentMulIntoDisjointDsts stress-tests the worker pool under the
// race detector: many goroutines issue parallel matmuls into disjoint
// destinations at once, the pattern the per-chunk fine-tuning fan-out in
// internal/core produces. The race detector does not see the memory
// accesses of assembly kernels, so the run per kernel set also checks that
// concurrent calls on the assembly kernels return the single-call result.
func TestConcurrentMulIntoDisjointDsts(t *testing.T) {
	forEachKernelSet(t, testConcurrentMulIntoDisjointDsts)
}

func testConcurrentMulIntoDisjointDsts(t *testing.T) {
	forceParallel(t, 4)
	r := rand.New(rand.NewSource(7))
	const goroutines = 8
	const iters = 25
	as := make([]*Matrix, goroutines)
	bs := make([]*Matrix, goroutines)
	wants := make([]*Matrix, goroutines)
	bts := make([]*Matrix, goroutines)
	wantsT := make([]*Matrix, goroutines)
	for g := range as {
		as[g] = randMat(r, 13, 17)
		bs[g] = randMat(r, 17, 11)
		wants[g] = Mul(as[g], bs[g])
		bts[g] = randMat(r, 37, 17)
		wantsT[g] = MulTransB(as[g], bts[g])
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := New(13, 11)
			dstT := New(13, 37)
			for it := 0; it < iters; it++ {
				MulInto(dst, as[g], bs[g])
				MulTransAInto(New(17, 11), as[g].Clone(), wantsShape(as[g].Rows, 11, wants[g]))
				MulTransBInto(dstT, as[g], bts[g])
				if !bitsEqual(dst.Data, wants[g].Data) || !bitsEqual(dstT.Data, wantsT[g].Data) {
					t.Errorf("goroutine %d iter %d: result diverged", g, it)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// wantsShape returns a rows×cols matrix reusing src values (cycled), giving
// the stress test varied operands without extra RNG coordination.
func wantsShape(rows, cols int, src *Matrix) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.Data[i%len(src.Data)]
	}
	return m
}

// TestParallelForCoversRange checks span partitioning: every index is
// visited exactly once for awkward n/worker combinations, and nested calls
// do not deadlock.
func TestParallelForCoversRange(t *testing.T) {
	forceParallel(t, 4)
	for _, n := range []int{0, 1, 2, 3, 5, 16, 31} {
		var mu sync.Mutex
		seen := make([]int, n)
		ParallelFor(n, func(lo, hi int) {
			// Nested ParallelFor must complete even with the pool busy.
			ParallelFor(2, func(int, int) {})
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestSetParallelismClamps(t *testing.T) {
	SetParallelism(-3)
	if got := Parallelism(); got != 1 {
		t.Fatalf("negative parallelism must clamp to 1, got %d", got)
	}
	SetParallelism(6)
	if got := Parallelism(); got != 6 {
		t.Fatalf("Parallelism() = %d, want 6", got)
	}
	SetParallelism(1)
	SetParallelThreshold(0)
}
