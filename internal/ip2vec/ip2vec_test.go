package ip2vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/mat"
	"repro/internal/trace"
)

// raceEnabled reports a -race build (race_test.go), where sync.Pool drops
// items at random, so allocation counts are not exact.
var raceEnabled bool

// NearestScan is the direct linear-scan reference for Nearest: it computes
// the full squared distance Σ(x−v)² per word, for testing the batched
// searcher against.
func (m *Model) NearestScan(kind WordKind, v []float64) (Word, bool) {
	best := math.Inf(1)
	var bestW Word
	found := false
	for i, w := range m.words {
		if w.Kind != kind {
			continue
		}
		var d float64
		for j, x := range m.vecs[i] {
			diff := x - v[j]
			d += diff * diff
		}
		if d < best {
			best, bestW, found = d, w, true
		}
	}
	return bestW, found
}

// Similarity returns the cosine similarity between two vocabulary words
// (0 when either is unknown).
func (m *Model) Similarity(a, b Word) float64 {
	va, ok1 := m.Vector(a)
	vb, ok2 := m.Vector(b)
	if !ok1 || !ok2 {
		return 0
	}
	var dot, na, nb float64
	for i := range va {
		dot += va[i] * vb[i]
		na += va[i] * va[i]
		nb += vb[i] * vb[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// corpus builds sentences where port 80 and 443 co-occur with TCP, and 53
// with UDP, so the embedding should place 80 nearer 443 than 53.
func corpus() [][]Word {
	var out [][]Word
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			out = append(out, []Word{IPWord(1), PortWord(80), ProtoWord(trace.TCP)})
		case 1:
			out = append(out, []Word{IPWord(2), PortWord(443), ProtoWord(trace.TCP)})
		default:
			out = append(out, []Word{IPWord(3), PortWord(53), ProtoWord(trace.UDP)})
		}
	}
	return out
}

func TestTrainBasics(t *testing.T) {
	m, err := Train(corpus(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 3 IP words + 3 port words + 2 proto words.
	if len(m.words) != 8 {
		t.Fatalf("vocab size = %d, want 8", len(m.words))
	}
	if _, ok := m.Vector(PortWord(80)); !ok {
		t.Fatal("port 80 must be in vocabulary")
	}
	if _, ok := m.Vector(PortWord(9999)); ok {
		t.Fatal("unseen port must not be in vocabulary")
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	if _, err := Train(corpus(), Config{}); err == nil {
		t.Fatal("zero config must be rejected")
	}
	if _, err := Train(nil, DefaultConfig()); err == nil {
		t.Fatal("empty corpus must be rejected")
	}
}

func TestSemanticStructure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 20
	m, err := Train(corpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// TCP service ports should be mutually closer than to the UDP port.
	simTCP := m.Similarity(PortWord(80), PortWord(443))
	simCross := m.Similarity(PortWord(80), PortWord(53))
	if simTCP <= simCross {
		t.Fatalf("co-occurring TCP ports should embed closer: %v vs %v", simTCP, simCross)
	}
}

func TestNearestRecoversWord(t *testing.T) {
	m, err := Train(corpus(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.Vector(PortWord(443))
	w, ok := m.Nearest(KindPort, v)
	if !ok || w != PortWord(443) {
		t.Fatalf("Nearest = %v, want port 443", w)
	}
	// Kind restriction: the nearest IP word is an IP even for a port vector.
	w, ok = m.Nearest(KindIP, v)
	if !ok || w.Kind != KindIP {
		t.Fatalf("Nearest(KindIP) = %v", w)
	}
}

func TestNearestNoisy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 15
	m, err := Train(corpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.Vector(PortWord(80))
	noisy := make([]float64, len(v))
	for i, x := range v {
		noisy[i] = x + 0.01
	}
	w, _ := m.Nearest(KindPort, noisy)
	if w != PortWord(80) {
		t.Fatalf("small perturbation should still decode to 80, got %v", w)
	}
}

func TestWordsByKind(t *testing.T) {
	m, err := Train(corpus(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ports := m.Words(KindPort)
	if len(ports) != 3 {
		t.Fatalf("got %d port words", len(ports))
	}
	for i := 1; i < len(ports); i++ {
		if ports[i].Value < ports[i-1].Value {
			t.Fatal("Words must be sorted by value")
		}
	}
}

func TestPublicCorpusCoversServicePorts(t *testing.T) {
	// The Insight 2 claim: a public backbone trace covers the service ports
	// the private data uses, so the embedding trained on public data can
	// decode private generations.
	public := datasets.CAIDAChicago(4000, 1)
	sentences := PacketSentences(public)
	if len(sentences) == 0 {
		t.Fatal("no sentences")
	}
	cfg := DefaultConfig()
	cfg.Epochs = 2
	m, err := Train(sentences, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range trace.ServicePorts {
		if !m.Has(PortWord(p)) {
			t.Fatalf("public embedding missing service port %d", p)
		}
	}
	for _, proto := range []trace.Protocol{trace.TCP, trace.UDP} {
		if !m.Has(ProtoWord(proto)) {
			t.Fatalf("public embedding missing protocol %v", proto)
		}
	}
}

func TestFlowSentencesDedup(t *testing.T) {
	tpl := trace.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: trace.TCP}
	rev := trace.FiveTuple{SrcIP: 2, DstIP: 1, SrcPort: 4, DstPort: 3, Proto: trace.TCP}
	tr := &trace.FlowTrace{Records: []trace.FlowRecord{
		{Tuple: tpl}, {Tuple: tpl}, {Tuple: rev},
	}}
	s := FlowSentences(tr)
	if len(s) != 2 {
		t.Fatalf("got %d sentences, want 2 (dedup by tuple)", len(s))
	}
	if len(s[0]) != 5 {
		t.Fatalf("sentence length %d, want 5", len(s[0]))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, err := Train(corpus(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.words) != len(m.words) || back.Dim != m.Dim {
		t.Fatal("vocabulary lost in round trip")
	}
	for _, w := range m.Words(KindPort) {
		v1, _ := m.Vector(w)
		v2, ok := back.Vector(w)
		if !ok {
			t.Fatalf("word %v lost", w)
		}
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatal("vectors differ after round trip")
			}
		}
	}
	// Nearest-neighbour decode still works.
	v, _ := back.Vector(PortWord(80))
	if w, ok := back.Nearest(KindPort, v); !ok || w != PortWord(80) {
		t.Fatalf("Nearest after decode = %v", w)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("nope")); err == nil {
		t.Fatal("garbage must fail")
	}
}

// TestNearestBatchMatchesScan checks NearestBatch against Nearest and the
// exact-distance NearestScan for every word kind, at the serving Dim 8 (the
// one the assembly decode serves) and at DefaultConfig's Dim 16, with a
// ragged batch (67 rows), once per kernel set: the race detector cannot
// see the assembly's memory accesses.
func TestNearestBatchMatchesScan(t *testing.T) {
	for _, dim := range []int{8, 16} {
		m := publicModel(t, dim)
		const n = 67
		queries := randomQueries(rand.New(rand.NewSource(11)), n, m.Dim, 0.2)
		mat.ForEachKernelSet(func(name string) {
			t.Run(fmt.Sprintf("dim%d/%s", dim, name), func(t *testing.T) {
				checkBatchMatchesScan(t, m, queries)
			})
		})
	}
}

func checkBatchMatchesScan(t *testing.T, m *Model, queries *mat.Matrix) {
	n := queries.Rows
	for _, kind := range []WordKind{KindIP, KindPort, KindProto} {
		batch, ok := m.NearestBatch(kind, queries)
		if !ok || len(batch) != n {
			t.Fatalf("kind %d: NearestBatch ok=%v len=%d", kind, ok, len(batch))
		}
		for i := 0; i < n; i++ {
			scan, ok := m.NearestScan(kind, queries.Row(i))
			if !ok {
				t.Fatalf("kind %d: NearestScan found nothing", kind)
			}
			single, ok := m.Nearest(kind, queries.Row(i))
			if !ok {
				t.Fatalf("kind %d: Nearest found nothing", kind)
			}
			if batch[i] != single {
				t.Fatalf("kind %d row %d: batch %v != single %v", kind, i, batch[i], single)
			}
			// The scan minimizes the exact Σ(x−v)²; the searcher minimizes
			// ‖w‖²−2·dot. Both must pick a word at the same distance (they may
			// differ only on exact floating-point ties).
			if batch[i] != scan {
				db := sqDist(m, batch[i], queries.Row(i))
				ds := sqDist(m, scan, queries.Row(i))
				if db != ds {
					t.Fatalf("kind %d row %d: batch %v (d=%v) vs scan %v (d=%v)",
						kind, i, batch[i], db, scan, ds)
				}
			}
		}
	}
}

// publicModel trains a dim-dimensional embedding on a small public corpus.
func publicModel(t testing.TB, dim int) *Model {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Dim = dim
	cfg.Epochs = 2
	m, err := Train(PacketSentences(datasets.CAIDAChicago(2000, 7)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomQueries returns n rows of dim N(0, scale²) coordinates.
func randomQueries(r *rand.Rand, n, dim int, scale float64) *mat.Matrix {
	q := mat.New(n, dim)
	for i := range q.Data {
		q.Data[i] = r.NormFloat64() * scale
	}
	return q
}

// TestNearestBatchAllocatesOnlyResult: once its pooled scratch has grown, a
// batched decode of one serve_large request's port queries (20000 rows at
// Dim 8) allocates only the []Word it returns, on every kernel set.
func TestNearestBatchAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	m := publicModel(t, 8)
	queries := randomQueries(rand.New(rand.NewSource(5)), 20000, m.Dim, 0.3)
	mat.ForEachKernelSet(func(name string) {
		t.Run(name, func(t *testing.T) {
			if n := testing.AllocsPerRun(10, func() { m.NearestBatch(KindPort, queries) }); n > 1 {
				t.Fatalf("NearestBatch of %d rows makes %v allocations, want at most 1 (the result)", queries.Rows, n)
			}
		})
	})
}

func sqDist(m *Model, w Word, v []float64) float64 {
	e, _ := m.Vector(w)
	var d float64
	for i, x := range e {
		diff := x - v[i]
		d += diff * diff
	}
	return d
}

func TestNearestEmptyKind(t *testing.T) {
	// A corpus with no protocol words: decode of KindProto must report
	// found=false rather than fabricating a word.
	sentences := [][]Word{{IPWord(1), PortWord(80)}, {IPWord(2), PortWord(443)}}
	m, err := Train(sentences, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Nearest(KindProto, make([]float64, m.Dim)); ok {
		t.Fatal("Nearest on empty kind must report found=false")
	}
	if _, ok := m.NearestScan(KindProto, make([]float64, m.Dim)); ok {
		t.Fatal("NearestScan on empty kind must report found=false")
	}
	q := mat.New(3, m.Dim)
	if out, ok := m.NearestBatch(KindProto, q); ok || out != nil {
		t.Fatal("NearestBatch on empty kind must report found=false")
	}
	// Non-empty kinds still decode.
	if _, ok := m.NearestBatch(KindPort, q); !ok {
		t.Fatal("NearestBatch on populated kind must succeed")
	}
}

func TestNearestConcurrent(t *testing.T) {
	m, err := Train(corpus(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.Vector(PortWord(443))
	done := make(chan Word, 8)
	for g := 0; g < 8; g++ {
		go func() {
			w, _ := m.Nearest(KindPort, v)
			done <- w
		}()
	}
	for g := 0; g < 8; g++ {
		if w := <-done; w != PortWord(443) {
			t.Fatalf("concurrent Nearest = %v, want port 443", w)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	m1, _ := Train(corpus(), DefaultConfig())
	m2, _ := Train(corpus(), DefaultConfig())
	v1, _ := m1.Vector(PortWord(80))
	v2, _ := m2.Vector(PortWord(80))
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("same seed must give identical embeddings")
		}
	}
}

// BenchmarkNearestBatch times decoding a query batch to its nearest port
// words in one call: 256 rows at DefaultConfig's Dim 16, and 256 rows (the
// shape the flow synthesizer's decode used to issue) and 20000 rows (the
// port queries of one 10000-record generate) at core's serving Dim 8, once
// per kernel set. Only Dim 8 has an assembly kernel.
func BenchmarkNearestBatch(b *testing.B) {
	run := func(b *testing.B, m *Model, n int) {
		queries := randomQueries(rand.New(rand.NewSource(11)), n, m.Dim, 0.3)
		m.NearestBatch(KindPort, queries) // build the searcher and scratch outside the timer
		b.ReportAllocs()
		for b.Loop() {
			m.NearestBatch(KindPort, queries)
		}
	}
	m16 := publicModel(b, 16)
	b.Run("dim16/256", func(b *testing.B) { run(b, m16, 256) })
	m8 := publicModel(b, 8)
	for _, n := range []int{256, 20000} {
		mat.ForEachKernelSet(func(name string) {
			b.Run(fmt.Sprintf("dim8/%d/%s", n, name), func(b *testing.B) { run(b, m8, n) })
		})
	}
}
