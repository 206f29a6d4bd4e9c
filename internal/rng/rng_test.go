package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewIsDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(2)
	for i := 0; i < 1000; i++ {
		if LogNormal(r, 0, 1) <= 0 {
			t.Fatal("log-normal must be positive")
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(5)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += Exponential(r, 4)
	}
	if mean := sum / n; math.Abs(mean-0.25) > 0.02 {
		t.Fatalf("Exp(4) mean = %v, want ~0.25", mean)
	}
}

func TestZipfRankZeroMostFrequent(t *testing.T) {
	r := New(6)
	z := NewZipf(100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.Draw(r)]++
	}
	if counts[0] <= counts[10] || counts[0] <= counts[50] {
		t.Fatalf("rank 0 should dominate: %d vs %d vs %d", counts[0], counts[10], counts[50])
	}
}

func TestZipfDrawInRange(t *testing.T) {
	f := func(seed int64) bool {
		r := New(seed)
		z := NewZipf(7, 1.0)
		for i := 0; i < 100; i++ {
			d := z.Draw(r)
			if d < 0 || d >= 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCategoricalMatchesWeights(t *testing.T) {
	r := New(7)
	c := NewCategorical([]float64{1, 3})
	counts := [2]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		counts[c.Draw(r)]++
	}
	frac := float64(counts[1]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("weight-3 outcome frequency = %v, want ~0.75", frac)
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, weights := range [][]float64{nil, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for weights %v", weights)
				}
			}()
			NewCategorical(weights)
		}()
	}
}

func TestDeriveStreamsAreStableAndDistinct(t *testing.T) {
	// Child seeds are pinned: every parallel-training golden draws its
	// per-stream noise from them.
	for _, c := range []struct{ seed, stream, want int64 }{
		{7, 0, -475156295229938928},
		{7, 3, -4508597046985504577},
		{-1, 1 << 40, -2799905905910795873},
	} {
		if got := Derive(c.seed, c.stream); got != c.want {
			t.Fatalf("Derive(%d, %d) = %d, want %d", c.seed, c.stream, got, c.want)
		}
	}
	// Distinct streams (and distinct base seeds) must decorrelate: no two
	// child seeds collide across a modest grid.
	seen := make(map[int64][2]int64)
	for seed := int64(0); seed < 32; seed++ {
		for stream := int64(0); stream < 32; stream++ {
			d := Derive(seed, stream)
			if prev, ok := seen[d]; ok {
				t.Fatalf("Derive collision: (%d,%d) and (%d,%d) -> %d", prev[0], prev[1], seed, stream, d)
			}
			seen[d] = [2]int64{seed, stream}
		}
	}
	// Sequential seeds must not produce near-identical streams the way raw
	// rand.NewSource(seed) and rand.NewSource(seed+1) can correlate.
	a, b := New(Derive(1, 0)), New(Derive(1, 1))
	same := 0
	for k := 0; k < 64; k++ {
		if a.Intn(2) == b.Intn(2) {
			same++
		}
	}
	if same == 0 || same == 64 {
		t.Fatalf("streams 0 and 1 look correlated: %d/64 equal coin flips", same)
	}
}
