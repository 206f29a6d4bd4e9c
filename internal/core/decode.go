package core

import (
	"repro/internal/dgan"
	"repro/internal/ip2vec"
	"repro/internal/mat"
	"repro/internal/trace"
)

// Batched five-tuple decode for the generation pipeline. Per-sample decode
// runs one linear nearest-neighbour search per port/protocol field; here all
// fields of a generated batch are gathered into query matrices and resolved
// with one ip2vec.NearestBatch (a single matmul) per kind.

// fallbackPort is the explicit decode fallback when the dictionary has no
// port vocabulary: the numerically lowest known port, or 0 when the
// vocabulary is empty. pe.ports is sorted at build time (model.Words) and
// re-sorted when restored from a checkpoint, but the minimum is scanned
// explicitly so the fallback stays correct even for a hand-built or
// unsorted vocabulary.
func (pe *portEmbedding) fallbackPort() uint16 {
	if len(pe.ports) == 0 {
		return 0
	}
	min := pe.ports[0].Value
	for _, w := range pe.ports[1:] {
		if w.Value < min {
			min = w.Value
		}
	}
	return uint16(min)
}

// invertInto denormalizes row into dst (the generator emits [0,1]-normalized
// embedding coordinates; the dictionary search runs in embedding space).
func (pe *portEmbedding) invertInto(dst, row []float64) {
	for d, x := range row {
		dst[d] = pe.norms[d].Inverse(x)
	}
}

// tupleScratch is decodeTuples' reusable storage: the query matrix, the
// row views into the samples' metadata, the decoded word values and the
// tuples. The fill loops keep one in their genScratch, so a warm batch
// allocates only NearestBatch's result.
type tupleScratch struct {
	q                   mat.Matrix
	portRows, protoRows [][]float64
	ports, protos       []uint32
	tuples              []trace.FiveTuple
}

// decodeKindBatch resolves every row to its nearest word value of the given
// kind through one batched matmul, into dst, with the query matrix built in
// q (both resized to the batch). fallback is used when the kind has no
// vocabulary at all.
func (pe *portEmbedding) decodeKindBatch(dst []uint32, q *mat.Matrix, kind ip2vec.WordKind, rows [][]float64, fallback uint32) []uint32 {
	out := resize(dst, len(rows))
	q.Rows, q.Cols = len(rows), pe.dim
	q.Data = resize(q.Data, len(rows)*pe.dim)
	for i, row := range rows {
		pe.invertInto(q.Row(i), row)
	}
	words, ok := pe.model.NearestBatch(kind, q)
	if !ok {
		for i := range out {
			out[i] = fallback
		}
		return out
	}
	for i, w := range words {
		out[i] = w.Value
	}
	return out
}

// decodeTuples inverts the shared metadata layout for a whole generated
// batch at once: IPs are bit-decoded per sample, ports and protocols are
// resolved through the batched dictionary search.
func decodeTuples(embed *portEmbedding, ipEmbed *ipEmbedding, samples []dgan.Sample) []trace.FiveTuple {
	return new(tupleScratch).decode(embed, ipEmbed, samples)
}

// decode is decodeTuples on ts's storage; the result is valid until ts's
// next decode.
func (ts *tupleScratch) decode(embed *portEmbedding, ipEmbed *ipEmbedding, samples []dgan.Sample) []trace.FiveTuple {
	d := embed.dim
	n := len(samples)
	out := resize(ts.tuples, n)
	ts.tuples = out
	ts.portRows = resize(ts.portRows, 2*n)
	ts.protoRows = resize(ts.protoRows, n)
	for i := range samples {
		meta := samples[i].Meta
		var off int
		out[i].SrcIP, out[i].DstIP, off = decodeIPs(meta, ipEmbed)
		ts.portRows[2*i] = meta[off : off+d]
		ts.portRows[2*i+1] = meta[off+d : off+2*d]
		ts.protoRows[i] = meta[off+2*d : off+3*d]
	}
	ts.ports = embed.decodeKindBatch(ts.ports, &ts.q, ip2vec.KindPort, ts.portRows, uint32(embed.fallbackPort()))
	ts.protos = embed.decodeKindBatch(ts.protos, &ts.q, ip2vec.KindProto, ts.protoRows, uint32(trace.TCP))
	for i := range out {
		out[i].SrcPort = uint16(ts.ports[2*i])
		out[i].DstPort = uint16(ts.ports[2*i+1])
		out[i].Proto = trace.Protocol(ts.protos[i])
	}
	return out
}

// resize returns b with n elements, reallocating only when too small.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
