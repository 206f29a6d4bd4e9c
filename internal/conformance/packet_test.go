package conformance

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// PacketReport and PacketViolations are the packet-trace halves of
// FlowReport and FlowViolations; only this package's tests score packet
// traces.

// PacketReport compares a reference-path and a fast-path packet trace.
// Categorical: address prefixes, ports, protocol, packets-per-flow.
// Continuous: packet size, arrival time, TTL.
func PacketReport(ref, fast *trace.PacketTrace) Report {
	r := Report{JSD: map[string]float64{}, EMD: map[string]float64{}}

	counts := func(t *trace.PacketTrace, key func(trace.Packet) uint64) map[uint64]float64 {
		out := make(map[uint64]float64)
		for _, p := range t.Packets {
			out[key(p)]++
		}
		return out
	}
	for _, f := range []struct {
		name string
		key  func(trace.Packet) uint64
	}{
		{"SA/16", func(p trace.Packet) uint64 { return ipPrefix(p.Tuple.SrcIP) }},
		{"DA/16", func(p trace.Packet) uint64 { return ipPrefix(p.Tuple.DstIP) }},
		{"SP", func(p trace.Packet) uint64 { return uint64(p.Tuple.SrcPort) }},
		{"DP", func(p trace.Packet) uint64 { return uint64(p.Tuple.DstPort) }},
		{"PR", func(p trace.Packet) uint64 { return uint64(p.Tuple.Proto) }},
	} {
		r.JSD[f.name] = metrics.JSD(counts(ref, f.key), counts(fast, f.key))
	}
	r.JSD["PKTS_PER_FLOW"] = metrics.JSD(packetsPerFlow(ref), packetsPerFlow(fast))

	cont := func(t *trace.PacketTrace, val func(trace.Packet) float64) []float64 {
		out := make([]float64, len(t.Packets))
		for i, p := range t.Packets {
			out[i] = val(p)
		}
		return out
	}
	for _, f := range []struct {
		name string
		val  func(trace.Packet) float64
	}{
		{"PS", func(p trace.Packet) float64 { return float64(p.Size) }},
		{"PAT", func(p trace.Packet) float64 { return float64(p.Time) }},
		{"TTL", func(p trace.Packet) float64 { return float64(p.TTL) }},
	} {
		r.EMD[f.name] = normEMD(cont(ref, f.val), cont(fast, f.val))
	}
	return r
}

func packetsPerFlow(t *trace.PacketTrace) map[uint64]float64 {
	per := make(map[trace.FiveTuple]uint64)
	for _, p := range t.Packets {
		per[p.Tuple]++
	}
	out := make(map[uint64]float64)
	for _, n := range per {
		out[n]++
	}
	return out
}

// PacketViolations is FlowViolations for packet traces.
func PacketViolations(t *trace.PacketTrace) []string {
	var out []string
	report := func(format string, args ...any) {
		if len(out) < 10 {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	for i, p := range t.Packets {
		if !knownProto(p.Tuple.Proto) {
			report("packet %d: unknown protocol %d", i, p.Tuple.Proto)
		}
		if p.Size < trace.MinPacketSize(p.Tuple.Proto) || p.Size > trace.MaxPacket {
			report("packet %d: size %d outside [%d, %d]", i, p.Size,
				trace.MinPacketSize(p.Tuple.Proto), trace.MaxPacket)
		}
		if i > 0 && p.Time < t.Packets[i-1].Time {
			report("packet %d: time %d before predecessor", i, p.Time)
		}
	}
	return out
}
