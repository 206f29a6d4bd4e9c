package dgan

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/privacy"
)

// trainedWeights trains a fresh model at the given parallelism (the
// number of DP-SGD sample lanes) and returns the flattened final weights.
func trainedWeights(t *testing.T, parallelism int, dp bool) []float64 {
	t.Helper()
	cfg := toyConfig()
	cfg.Batch = 8
	cfg.Seed = 17
	cfg.Parallelism = parallelism
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := toySamples(64, 3)
	if dp {
		sgd, err := privacy.NewDPSGD(privacy.DPSGDConfig{
			ClipNorm: 1, NoiseMultiplier: 0.5, SampleRate: 8.0 / 64, Delta: 1e-5,
		}, rand.New(rand.NewSource(23)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.TrainDPWithHook(samples, 6, sgd, nil); err != nil {
			t.Fatal(err)
		}
	} else {
		if _, err := m.Train(samples, 6); err != nil {
			t.Fatal(err)
		}
	}
	var out []float64
	for _, p := range m.Params() {
		out = append(out, p.W.Data...)
	}
	return out
}

// TestTrainBitwiseDeterministicAcrossParallelism is the headline guarantee
// of the parallel training layer: the same seed produces bitwise-identical
// model weights at parallelism 1, 2, and 4, for both the plain WGAN-GP path
// (which ignores the setting) and the DP-SGD path (per-worker critic
// replicas merged by the fixed-order tree reduction).
func TestTrainBitwiseDeterministicAcrossParallelism(t *testing.T) {
	for _, dp := range []bool{false, true} {
		name := "wgan-gp"
		if dp {
			name = "dp-sgd"
		}
		t.Run(name, func(t *testing.T) {
			want := trainedWeights(t, 1, dp)
			for _, par := range []int{2, 4} {
				got := trainedWeights(t, par, dp)
				if len(got) != len(want) {
					t.Fatalf("parallelism %d: %d weights, want %d", par, len(got), len(want))
				}
				for i, v := range got {
					if v != want[i] {
						t.Fatalf("parallelism %d: weight %d differs bitwise: %v != %v",
							par, i, v, want[i])
					}
				}
			}
		})
	}
}

// TestConcurrentChunkFineTunes exercises the executor-style fine-tune fan-out
// (several models training at once, each configured for 2 workers) under
// the race detector.
func TestConcurrentChunkFineTunes(t *testing.T) {
	cfg := toyConfig()
	cfg.Batch = 8
	cfg.Parallelism = 2
	seed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Train(toySamples(32, 1), 3); err != nil {
		t.Fatal(err)
	}

	const chunks = 4
	var wg sync.WaitGroup
	errs := make([]error, chunks)
	for c := 0; c < chunks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ccfg := cfg
			ccfg.Seed = int64(100 + c)
			m, err := New(ccfg)
			if err != nil {
				errs[c] = err
				return
			}
			if err := m.Warmstart(seed); err != nil {
				errs[c] = err
				return
			}
			_, errs[c] = m.Train(toySamples(32, int64(c)), 4)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("chunk %d: %v", c, err)
		}
	}
}

// TestParallelDPTrainingUnderRace drives the per-sample fan-out with more
// workers than samples-per-shard so the race detector sees the full
// replica/scratch machinery.
func TestParallelDPTrainingUnderRace(t *testing.T) {
	cfg := toyConfig()
	cfg.Batch = 8
	cfg.Parallelism = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := privacy.NewDPSGD(privacy.DPSGDConfig{
		ClipNorm: 1, NoiseMultiplier: 0.3, SampleRate: 0.125, Delta: 1e-5,
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainDPWithHook(toySamples(64, 4), 5, dp, nil); err != nil {
		t.Fatal(err)
	}
	if gen := m.Generate(4); len(gen) != 4 {
		t.Fatal("generation failed after parallel DP training")
	}
}

// BenchmarkCriticStep times one critic update round (both critics), with
// and without DP-SGD, with one worker and with one per CPU (the setting
// only fans out the DP-SGD sample lanes). Allocations are reported because
// the DP path's per-worker scratch is meant to be reused.
func BenchmarkCriticStep(b *testing.B) {
	for _, dp := range []bool{false, true} {
		for _, p := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("dp=%v/p=%d", dp, p), func(b *testing.B) {
				cfg := toyConfig()
				cfg.Parallelism = p
				m, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				var sgd *privacy.DPSGD
				if dp {
					sgd, err = privacy.NewDPSGD(privacy.DPSGDConfig{
						ClipNorm: 1, NoiseMultiplier: 0.7, SampleRate: 16.0 / 64, Delta: 1e-5,
					}, rand.New(rand.NewSource(7)))
					if err != nil {
						b.Fatal(err)
					}
				}
				samples := toySamples(64, 3)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.criticStep(samples, sgd)
				}
			})
		}
	}
}
