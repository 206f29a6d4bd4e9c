// Package ip2vec implements the IP2Vec embedding (Ring et al. 2017) the
// paper adapts in Insight 2: a word2vec-style skip-gram model with negative
// sampling where each five-tuple is a "sentence" and the IPs, ports, and
// protocol are "words". The trained dictionary maps each word to a
// fixed-length vector; generated vectors are decoded by nearest-neighbour
// search over the dictionary.
//
// NetShare's privacy-aware variant trains the embedding on PUBLIC data only
// (a CAIDA backbone trace, which contains nearly every port/protocol), so
// the dictionary is data independent with respect to the private trace and
// does not consume differential-privacy budget.
package ip2vec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/mat"
	"repro/internal/trace"
)

// WordKind distinguishes the vocabulary classes.
type WordKind uint8

// Vocabulary classes.
const (
	KindIP WordKind = iota
	KindPort
	KindProto
)

// Word is one vocabulary item: a kind plus its value.
type Word struct {
	Kind  WordKind
	Value uint32
}

// IPWord, PortWord and ProtoWord build vocabulary items.
func IPWord(ip trace.IPv4) Word       { return Word{Kind: KindIP, Value: uint32(ip)} }
func PortWord(p uint16) Word          { return Word{Kind: KindPort, Value: uint32(p)} }
func ProtoWord(p trace.Protocol) Word { return Word{Kind: KindProto, Value: uint32(p)} }

// Config holds the skip-gram training hyperparameters.
type Config struct {
	Dim       int     // embedding dimensionality
	Epochs    int     // passes over the sentence corpus
	LR        float64 // initial learning rate, linearly decayed
	Negatives int     // negative samples per positive pair
	Seed      int64
}

// DefaultConfig mirrors the small-scale settings that suffice for
// port/protocol vocabularies.
func DefaultConfig() Config {
	return Config{Dim: 16, Epochs: 5, LR: 0.05, Negatives: 4, Seed: 1}
}

// Model is a trained IP2Vec dictionary.
type Model struct {
	Dim   int
	words []Word
	index map[Word]int
	vecs  [][]float64 // input (center) vectors, the published embedding
	ctx   [][]float64 // output (context) vectors, training state

	// Per-kind decode searchers, built lazily from the frozen embedding on
	// the first Nearest/NearestBatch call (the vectors never change after
	// Train/Decode return). Guarded by searchMu so concurrent decoders can
	// share one model.
	searchMu  sync.Mutex
	searchers map[WordKind]*searcher
}

// Train fits a skip-gram model on sentences. Every word in a sentence is a
// context of every other word (sentences are five-tuples, so windows span
// the whole sentence, matching IP2Vec).
func Train(sentences [][]Word, cfg Config) (*Model, error) {
	if cfg.Dim <= 0 || cfg.Epochs <= 0 || cfg.LR <= 0 || cfg.Negatives < 0 {
		return nil, fmt.Errorf("ip2vec: invalid config %+v", cfg)
	}
	m := &Model{Dim: cfg.Dim, index: make(map[Word]int)}
	var freq []float64
	for _, s := range sentences {
		for _, w := range s {
			if _, ok := m.index[w]; !ok {
				m.index[w] = len(m.words)
				m.words = append(m.words, w)
				freq = append(freq, 0)
			}
			freq[m.index[w]]++
		}
	}
	if len(m.words) == 0 {
		return nil, fmt.Errorf("ip2vec: empty corpus")
	}

	r := rand.New(rand.NewSource(cfg.Seed))
	m.vecs = make([][]float64, len(m.words))
	m.ctx = make([][]float64, len(m.words))
	for i := range m.words {
		m.vecs[i] = make([]float64, cfg.Dim)
		m.ctx[i] = make([]float64, cfg.Dim)
		for d := 0; d < cfg.Dim; d++ {
			m.vecs[i][d] = (r.Float64() - 0.5) / float64(cfg.Dim)
		}
	}

	// Unigram^(3/4) negative-sampling table.
	table := buildNegTable(freq, r)

	totalSteps := cfg.Epochs * len(sentences)
	step := 0
	grad := make([]float64, cfg.Dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, s := range sentences {
			lr := cfg.LR * (1 - float64(step)/float64(totalSteps+1))
			if lr < cfg.LR*0.01 {
				lr = cfg.LR * 0.01
			}
			step++
			for i, center := range s {
				ci := m.index[center]
				for j, context := range s {
					if i == j {
						continue
					}
					xi := m.index[context]
					m.trainPair(ci, xi, 1, lr, grad)
					for k := 0; k < cfg.Negatives; k++ {
						neg := table[r.Intn(len(table))]
						if neg == xi {
							continue
						}
						m.trainPair(ci, neg, 0, lr, grad)
					}
				}
			}
		}
	}
	m.ctx = nil // training state no longer needed
	return m, nil
}

func buildNegTable(freq []float64, r *rand.Rand) []int {
	const tableSize = 1 << 14
	var total float64
	pow := make([]float64, len(freq))
	for i, f := range freq {
		pow[i] = math.Pow(f, 0.75)
		total += pow[i]
	}
	table := make([]int, 0, tableSize)
	for i, p := range pow {
		n := int(p / total * tableSize)
		if n == 0 {
			n = 1
		}
		for k := 0; k < n; k++ {
			table = append(table, i)
		}
	}
	return table
}

// trainPair applies one SGD update for a (center, context) pair with the
// given label (1 positive, 0 negative), reusing grad as scratch.
func (m *Model) trainPair(center, context int, label float64, lr float64, grad []float64) {
	v, c := m.vecs[center], m.ctx[context]
	var dot float64
	for d := range v {
		dot += v[d] * c[d]
	}
	pred := 1 / (1 + math.Exp(-dot))
	g := (pred - label) * lr
	for d := range v {
		grad[d] = g * c[d]
		c[d] -= g * v[d]
	}
	for d := range v {
		v[d] -= grad[d]
	}
}

// Vector returns the embedding of w and whether it is in the vocabulary.
func (m *Model) Vector(w Word) ([]float64, bool) {
	i, ok := m.index[w]
	if !ok {
		return nil, false
	}
	return m.vecs[i], true
}

// Has reports whether w is in the vocabulary.
func (m *Model) Has(w Word) bool {
	_, ok := m.index[w]
	return ok
}

// Words returns the vocabulary items of one kind, sorted by value.
func (m *Model) Words(kind WordKind) []Word {
	var out []Word
	for _, w := range m.words {
		if w.Kind == kind {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// searcher is the decode index for one word kind: the kind's embeddings laid
// out as a contiguous V×Dim matrix plus precomputed squared norms, the
// operands of mat.NearestRows.
type searcher struct {
	words []Word      // kind's vocabulary, in model insertion order
	emb   *mat.Matrix // V×Dim, row i is the embedding of words[i]
	sq    []float64   // ‖emb[i]‖² for each row
}

// searcherFor returns the lazily built decode index for kind, or nil when the
// kind has no vocabulary entries.
func (m *Model) searcherFor(kind WordKind) *searcher {
	m.searchMu.Lock()
	defer m.searchMu.Unlock()
	if s, ok := m.searchers[kind]; ok {
		return s
	}
	var words []Word
	var rows []int
	for i, w := range m.words {
		if w.Kind == kind {
			words = append(words, w)
			rows = append(rows, i)
		}
	}
	var s *searcher
	if len(words) > 0 {
		emb := mat.New(len(words), m.Dim)
		sq := make([]float64, len(words))
		for i, src := range rows {
			copy(emb.Row(i), m.vecs[src])
			var n float64
			for _, x := range m.vecs[src] {
				n += x * x
			}
			sq[i] = n
		}
		s = &searcher{words: words, emb: emb, sq: sq}
	}
	if m.searchers == nil {
		m.searchers = make(map[WordKind]*searcher)
	}
	m.searchers[kind] = s
	return s
}

// pickPool recycles NearestBatch's pick scratch, so a batched decode
// allocates only the []Word it returns.
var pickPool = sync.Pool{New: func() any { return new([]int) }}

// Nearest returns the vocabulary word of the given kind whose embedding is
// closest (Euclidean) to v — the paper's post-processing decode step. It is
// a one-row NearestBatch, so the two always pick the same word.
func (m *Model) Nearest(kind WordKind, v []float64) (Word, bool) {
	s := m.searcherFor(kind)
	if s == nil {
		return Word{}, false
	}
	telNearestQueries.Inc()
	var pick [1]int
	mat.NearestRows(pick[:], &mat.Matrix{Rows: 1, Cols: m.Dim, Data: v[:m.Dim]}, s.emb, s.sq)
	return s.words[pick[0]], true
}

// NearestBatch decodes every row of queries (n×Dim) to its nearest vocabulary
// word of the given kind with one mat.NearestRows call: the Q·Wᵀ scores are
// fused with the per-row argmin of ‖w‖² − 2·dot, so no n×V score matrix is
// ever materialized, and on CPUs with AVX2 a Dim 8 batch runs an assembly
// kernel that picks the same words as the pure-Go reference. It returns
// found=false when the kind has no vocabulary entries (out is nil then).
func (m *Model) NearestBatch(kind WordKind, queries *mat.Matrix) ([]Word, bool) {
	s := m.searcherFor(kind)
	if s == nil {
		return nil, false
	}
	n := queries.Rows
	telNearestBatches.Inc()
	telNearestQueries.Add(int64(n))
	telBatchSize.Observe(float64(n))
	p := pickPool.Get().(*[]int)
	if cap(*p) < n {
		*p = make([]int, n)
	}
	pick := (*p)[:n]
	mat.NearestRows(pick, queries, s.emb, s.sq)
	out := make([]Word, n)
	for i, j := range pick {
		out[i] = s.words[j]
	}
	pickPool.Put(p)
	return out, true
}

// PacketSentences converts a packet trace into IP2Vec sentences: one per
// unique five-tuple, with the tuple's IPs, ports, and protocol as words.
func PacketSentences(t *trace.PacketTrace) [][]Word {
	seen := make(map[trace.FiveTuple]bool)
	var out [][]Word
	for _, p := range t.Packets {
		if seen[p.Tuple] {
			continue
		}
		seen[p.Tuple] = true
		out = append(out, tupleSentence(p.Tuple))
	}
	return out
}

// FlowSentences converts a flow trace into IP2Vec sentences.
func FlowSentences(t *trace.FlowTrace) [][]Word {
	seen := make(map[trace.FiveTuple]bool)
	var out [][]Word
	for _, r := range t.Records {
		if seen[r.Tuple] {
			continue
		}
		seen[r.Tuple] = true
		out = append(out, tupleSentence(r.Tuple))
	}
	return out
}

func tupleSentence(ft trace.FiveTuple) []Word {
	return []Word{
		IPWord(ft.SrcIP),
		PortWord(ft.SrcPort),
		IPWord(ft.DstIP),
		PortWord(ft.DstPort),
		ProtoWord(ft.Proto),
	}
}
