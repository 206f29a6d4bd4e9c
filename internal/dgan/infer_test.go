package dgan

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

func inferTestModel(t testing.TB) *InferModel {
	t.Helper()
	return genTestModel(t, 1).Infer()
}

// TestInferParallelismInvariant: the fast path keeps the reference path's
// reproducibility structure — same seed, any worker count, same output —
// even though it does not share the float64 bitwise contract. It runs once
// per matmul kernel set, because the race detector cannot see the memory
// accesses of the assembly MulInto32 the lot workers share weights through.
func TestInferParallelismInvariant(t *testing.T) {
	mat.ForEachKernelSet(func(name string) {
		t.Run(name, testInferParallelismInvariant)
	})
}

func testInferParallelismInvariant(t *testing.T) {
	const n = 203 // not a multiple of InferLot: partial final lot
	ref := inferTestModel(t)
	ref.SetParallelism(1)
	ref.Reseed(99)
	want := ref.Generate(n)
	if len(want) != n {
		t.Fatalf("got %d samples, want %d", len(want), n)
	}
	for _, p := range []int{2, 4, 0} {
		im := inferTestModel(t)
		im.SetParallelism(p)
		im.Reseed(99)
		if got := im.Generate(n); !reflect.DeepEqual(want, got) {
			t.Fatalf("Parallelism=%d output diverges from serial", p)
		}
	}
}

// TestInferSampleShapes checks structural validity of fast-path samples:
// meta width, feature width (presence stripped), length bounds, one-hot
// categorical blocks, continuous values inside the sigmoid range.
func TestInferSampleShapes(t *testing.T) {
	im := inferTestModel(t)
	im.Reseed(5)
	samples := im.Generate(130)
	metaW := nn.Width(im.metaSchema)
	featW := im.featW - 1 // presence flag stripped
	for i, s := range samples {
		if len(s.Meta) != metaW {
			t.Fatalf("sample %d meta width %d, want %d", i, len(s.Meta), metaW)
		}
		if len(s.Features) < 1 || len(s.Features) > im.maxLen {
			t.Fatalf("sample %d has %d steps, want 1..%d", i, len(s.Features), im.maxLen)
		}
		// m1 is a 4-way categorical occupying meta columns 2..6.
		var hot int
		for _, v := range s.Meta[2:6] {
			if v != 0 && v != 1 {
				t.Fatalf("sample %d categorical meta value %v", i, v)
			}
			if v == 1 {
				hot++
			}
		}
		if hot != 1 {
			t.Fatalf("sample %d meta one-hot count %d", i, hot)
		}
		for _, row := range s.Features {
			if len(row) != featW {
				t.Fatalf("sample %d feature width %d, want %d", i, len(row), featW)
			}
			if row[0] < 0 || row[0] > 1 {
				t.Fatalf("sample %d continuous feature %v outside [0,1]", i, row[0])
			}
		}
	}
}

// TestInferGenerateRepeatable: reseeding restores the exact stream.
func TestInferGenerateRepeatable(t *testing.T) {
	im := inferTestModel(t)
	im.Reseed(42)
	a := im.Generate(77)
	im.Reseed(42)
	b := im.Generate(77)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("reseeded fast-path generation must repeat exactly")
	}
}

// TestWarmForwardZeroAllocs: on warm scratch, one lot's metadata MLP, GRU
// step and projection allocate nothing in either precision, so the leaves
// table dispatch neither boxes a value nor lets a matrix header escape to
// the heap.
func TestWarmForwardZeroAllocs(t *testing.T) {
	m := genTestModel(t, 1)
	t.Run("float64", func(t *testing.T) { checkWarmForwardAllocs(t, &m.shape, m.net()) })
	t.Run("float32", func(t *testing.T) { checkWarmForwardAllocs(t, &m.shape, m.Infer().net) })
}

func checkWarmForwardAllocs[F nn.Float](t *testing.T, g *shape, fw *net[F]) {
	const rows = 16
	r := rand.New(rand.NewSource(1))
	in := make([]F, rows*(g.noiseDim+g.condW))
	x := make([]F, rows*(g.noiseDim+g.metaW))
	h, hNext := make([]F, rows*g.hidden), make([]F, rows*g.hidden)
	randNorm(in, r)
	randNorm(x, r)
	randNorm(h, r)
	var sc lotScratch[F]
	lot := func() {
		meta := fw.meta.InferInto(in, rows, &sc.meta)
		nn.ActivateRows(g.metaSchema, meta, rows)
		fw.gru.StepInfer(x, h, hNext, rows, &sc.gru)
		proj := fw.proj.InferInto(hNext, rows, &sc.proj)
		nn.ActivateRows(g.featSchema, proj, rows)
	}
	lot()
	if n := testing.AllocsPerRun(20, lot); n != 0 {
		t.Fatalf("warm forward allocates %v times per lot, want 0", n)
	}
}
