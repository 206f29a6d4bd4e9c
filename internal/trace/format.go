package trace

import (
	"errors"
	"fmt"
	"io"
)

// The egress format table: every download, generate response and CLI
// output resolves its format name here, so a format's content type,
// file extension, streaming writer and reader are stated once.

// ErrFormat reports a format name that is unknown or does not carry the
// requested trace kind.
var ErrFormat = errors.New("trace: unsupported format")

// Source is a whole trace a Format can encode in one pass: an in-memory
// *FlowTrace or *PacketTrace, or a columnar store.
type Source interface {
	Kind() Kind
	// TimeRange returns the earliest and latest record timestamp in
	// microseconds (flow start or packet time). The minimum is the
	// SysUptime origin of the NetFlow v5/v9 encodings.
	TimeRange() (min, max int64)
	ScanFlows(fn func(FlowRecord) error) error
	ScanPackets(fn func(Packet) error) error
}

// recordWriter streams records of one kind into an encoding. Flush after
// the last record completes the output.
type recordWriter[R any] interface {
	Write(R) error
	Flush() error
}

// codec is a format's streaming writer and whole-trace reader for one
// trace kind.
type codec[R, T any] struct {
	// newWriter starts an encoding on w; base is the Source's earliest
	// timestamp.
	newWriter func(w io.Writer, base int64) recordWriter[R]
	read      func(io.Reader) (*T, error)
}

// Format is one row of the egress table.
type Format struct {
	Name        string
	ContentType string
	Ext         string // file extension, without the dot
	// flow and packet are the per-kind codecs, nil where the format does
	// not carry that kind (only csv carries both).
	flow   *codec[FlowRecord, FlowTrace]
	packet *codec[Packet, PacketTrace]
}

// withBase and noBase adapt the concrete writer constructors to
// codec.newWriter.
func withBase[R any, W recordWriter[R]](newW func(io.Writer, int64) W) func(io.Writer, int64) recordWriter[R] {
	return func(w io.Writer, base int64) recordWriter[R] { return newW(w, base) }
}

func noBase[R any, W recordWriter[R]](newW func(io.Writer) W) func(io.Writer, int64) recordWriter[R] {
	return func(w io.Writer, _ int64) recordWriter[R] { return newW(w) }
}

var formats = map[string]Format{
	"csv": {
		Name: "csv", ContentType: "text/csv", Ext: "csv",
		flow:   &codec[FlowRecord, FlowTrace]{newWriter: noBase[FlowRecord](newFlowCSVWriter), read: ReadFlowCSV},
		packet: &codec[Packet, PacketTrace]{newWriter: noBase[Packet](newPacketCSVWriter), read: ReadPacketCSV},
	},
	"pcap": {
		Name: "pcap", ContentType: "application/vnd.tcpdump.pcap", Ext: "pcap",
		packet: &codec[Packet, PacketTrace]{newWriter: noBase[Packet](NewPCAPWriter), read: ReadPCAP},
	},
	"netflow5": {
		Name: "netflow5", ContentType: "application/octet-stream", Ext: "nf5",
		flow: &codec[FlowRecord, FlowTrace]{newWriter: withBase[FlowRecord](NewNFV5Writer), read: ReadNetFlowV5},
	},
	"netflow9": {
		Name: "netflow9", ContentType: "application/octet-stream", Ext: "nf9",
		flow: &codec[FlowRecord, FlowTrace]{newWriter: withBase[FlowRecord](NewNFV9Writer), read: ReadNetFlowV9},
	},
	"ipfix": {
		Name: "ipfix", ContentType: "application/octet-stream", Ext: "ipfix",
		flow: &codec[FlowRecord, FlowTrace]{newWriter: noBase[FlowRecord](NewIPFIXWriter), read: ReadIPFIX},
	},
}

// LookupFormat returns the table row for name, failing with ErrFormat
// when the name is unknown or the format does not carry kind.
func LookupFormat(name string, kind Kind) (Format, error) {
	f, ok := formats[name]
	if !ok || !f.carries(kind) {
		return Format{}, fmt.Errorf("%w: %q for %s traces", ErrFormat, name, kind)
	}
	return f, nil
}

// carries reports whether the format encodes traces of kind.
func (f Format) carries(kind Kind) bool {
	if kind == KindNetFlow {
		return f.flow != nil
	}
	return f.packet != nil
}

// Encode streams src through the format's writer for src's kind.
func (f Format) Encode(w io.Writer, src Source) error {
	if !f.carries(src.Kind()) {
		return fmt.Errorf("%w: %q for %s traces", ErrFormat, f.Name, src.Kind())
	}
	base, _ := src.TimeRange()
	if src.Kind() == KindNetFlow {
		return encode(f.flow, w, base, src.ScanFlows)
	}
	return encode(f.packet, w, base, src.ScanPackets)
}

func encode[R, T any](c *codec[R, T], w io.Writer, base int64, scan func(func(R) error) error) error {
	rw := c.newWriter(w, base)
	if err := scan(rw.Write); err != nil {
		return err
	}
	return rw.Flush()
}

// The buffered whole-trace writers are thin wrappers over the table.

// WritePacketCSV writes t to w in the packet CSV layout.
func WritePacketCSV(w io.Writer, t *PacketTrace) error { return formats["csv"].Encode(w, t) }

// WriteFlowCSV writes t to w in the flow CSV layout.
func WriteFlowCSV(w io.Writer, t *FlowTrace) error { return formats["csv"].Encode(w, t) }

// WritePCAP writes t to w in libpcap format (microsecond timestamps,
// LINKTYPE_RAW IPv4). Each packet's stored bytes are its marshaled IPv4
// header plus zero payload, truncated at maxStoredBytes; the on-wire
// length (`origLen`) is the packet's true size.
func WritePCAP(w io.Writer, t *PacketTrace) error { return formats["pcap"].Encode(w, t) }

// WriteNetFlowV5 writes t as a stream of NetFlow v5 export packets.
// Timestamps are expressed as milliseconds relative to the trace start
// (SysUptime starts at 0); a flow that extends past the v5 32-bit
// millisecond range (~49.7 days) fails with ErrUptimeOverflow rather than
// silently wrapping into Last < First records.
func WriteNetFlowV5(w io.Writer, t *FlowTrace) error { return formats["netflow5"].Encode(w, t) }

// WriteNetFlowV9 writes t as a stream of NetFlow v9 export packets with
// the template flowset in the first packet. Timestamps are milliseconds
// relative to the earliest flow start; flows past the 32-bit millisecond
// range fail with ErrUptimeOverflow.
func WriteNetFlowV9(w io.Writer, t *FlowTrace) error { return formats["netflow9"].Encode(w, t) }

// WriteIPFIX writes t as a stream of IPFIX messages with the template set
// in the first message. Timestamps are absolute milliseconds from the
// trace epoch; the 64-bit fields cannot overflow, so no uptime clamping
// applies (negative times clamp to 0).
func WriteIPFIX(w io.Writer, t *FlowTrace) error { return formats["ipfix"].Encode(w, t) }

// Kind reports KindNetFlow.
func (t *FlowTrace) Kind() Kind { return KindNetFlow }

// TimeRange returns the earliest and latest flow start (0, 0 when empty).
func (t *FlowTrace) TimeRange() (lo, hi int64) {
	for i, r := range t.Records {
		if i == 0 {
			lo, hi = r.Start, r.Start
		}
		lo, hi = min(lo, r.Start), max(hi, r.Start)
	}
	return lo, hi
}

// ScanFlows calls fn for each record in order.
func (t *FlowTrace) ScanFlows(fn func(FlowRecord) error) error {
	for _, r := range t.Records {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// ScanPackets fails: a flow trace holds no packets.
func (t *FlowTrace) ScanPackets(func(Packet) error) error {
	return fmt.Errorf("%w: flow trace has no packets", ErrFormat)
}

// Kind reports KindPCAP.
func (t *PacketTrace) Kind() Kind { return KindPCAP }

// TimeRange returns the earliest and latest packet time (0, 0 when
// empty).
func (t *PacketTrace) TimeRange() (lo, hi int64) {
	for i, p := range t.Packets {
		if i == 0 {
			lo, hi = p.Time, p.Time
		}
		lo, hi = min(lo, p.Time), max(hi, p.Time)
	}
	return lo, hi
}

// ScanFlows fails: a packet trace holds no flow records.
func (t *PacketTrace) ScanFlows(func(FlowRecord) error) error {
	return fmt.Errorf("%w: packet trace has no flow records", ErrFormat)
}

// ScanPackets calls fn for each packet in order.
func (t *PacketTrace) ScanPackets(fn func(Packet) error) error {
	for _, p := range t.Packets {
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}
