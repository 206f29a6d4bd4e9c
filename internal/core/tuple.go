package core

import (
	"repro/internal/encoding"
	"repro/internal/nn"
	"repro/internal/trace"
)

// tupleCodec is the five-tuple half of the metadata layout both trace
// kinds share: both IPs (bits, or embeddings under the IPVectorEncoding
// ablation), the port and protocol embeddings, then the flow tags.
// flowCodec and packetCodec embed it and add their own measurement
// features.
type tupleCodec struct {
	cfg     Config
	embed   *portEmbedding
	ipEmbed *ipEmbedding // non-nil only under the IPVectorEncoding ablation
}

// metaSchema is the metadata layout.
func (c *tupleCodec) metaSchema() []nn.FieldSpec {
	ipW := 32
	if c.ipEmbed != nil {
		ipW = c.cfg.EmbedDim
	}
	return []nn.FieldSpec{
		{Name: "src_ip", Kind: nn.FieldContinuous, Size: ipW},
		{Name: "dst_ip", Kind: nn.FieldContinuous, Size: ipW},
		{Name: "src_port_emb", Kind: nn.FieldContinuous, Size: c.cfg.EmbedDim},
		{Name: "dst_port_emb", Kind: nn.FieldContinuous, Size: c.cfg.EmbedDim},
		{Name: "proto_emb", Kind: nn.FieldContinuous, Size: c.cfg.EmbedDim},
		{Name: "tag_start", Kind: nn.FieldContinuous, Size: 1},
		{Name: "tag_presence", Kind: nn.FieldContinuous, Size: c.cfg.Chunks},
	}
}

// encodeMeta packs a tuple plus tags into the metadata vector.
func (c *tupleCodec) encodeMeta(ft trace.FiveTuple, tags trace.FlowTags) []float64 {
	out := make([]float64, 0, nn.Width(c.metaSchema()))
	out = appendIP(out, ft.SrcIP, c.ipEmbed)
	out = appendIP(out, ft.DstIP, c.ipEmbed)
	out = append(out, c.embed.encodePort(ft.SrcPort)...)
	out = append(out, c.embed.encodePort(ft.DstPort)...)
	out = append(out, c.embed.encodeProto(ft.Proto)...)
	return append(out, encodeTags(c.cfg, tags)...)
}

// decodeMeta inverts encodeMeta for one sample (the tags are training aids
// and are discarded). Generation decodes whole batches with decodeTuples;
// this per-sample path is its reference.
func (c *tupleCodec) decodeMeta(meta []float64) trace.FiveTuple {
	d := c.cfg.EmbedDim
	var ft trace.FiveTuple
	var off int
	ft.SrcIP, ft.DstIP, off = decodeIPs(meta, c.ipEmbed)
	ft.SrcPort = c.embed.decodePort(meta[off : off+d])
	ft.DstPort = c.embed.decodePort(meta[off+d : off+2*d])
	ft.Proto = c.embed.decodeProto(meta[off+2*d : off+3*d])
	return ft
}

// appendIP encodes one address: NetShare's bit encoding, or the Table 2
// ablation's private embedding when ipEmbed is set.
func appendIP(out []float64, ip trace.IPv4, ipEmbed *ipEmbedding) []float64 {
	if ipEmbed != nil {
		return append(out, ipEmbed.encode(ip)...)
	}
	return append(out, encoding.IPBits(ip)...)
}

// decodeIPs extracts both addresses from the metadata prefix and returns
// the offset of the first port field.
func decodeIPs(meta []float64, ipEmbed *ipEmbedding) (src, dst trace.IPv4, off int) {
	if ipEmbed != nil {
		d := ipEmbed.dim
		return ipEmbed.decode(meta[0:d]), ipEmbed.decode(meta[d : 2*d]), 2 * d
	}
	return encoding.IPFromBits(meta[0:32]), encoding.IPFromBits(meta[32:64]), 64
}

// encodeTags emits the Insight 3 flow tags (or zeros under the ablation).
func encodeTags(cfg Config, tags trace.FlowTags) []float64 {
	out := make([]float64, 1+cfg.Chunks)
	if cfg.DisableFlowTags {
		return out
	}
	if tags.StartsHere {
		out[0] = 1
	}
	for i := 0; i < cfg.Chunks && i < len(tags.Presence); i++ {
		if tags.Presence[i] {
			out[1+i] = 1
		}
	}
	return out
}
