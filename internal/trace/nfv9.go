package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Template-based NetFlow v9 export (RFC 3954). Unlike v5's fixed record
// layout, v9 describes records with a template flowset the collector must
// see before any data; the writer emits one template in the first export
// packet and packs records 30 to a packet afterwards, sharing the v5
// clamping discipline (uptime-relative 32-bit millisecond timestamps,
// ErrUptimeOverflow past ~49.7 days). A private field type carries the
// scenario label so labeled traces round-trip.

const (
	nfv9Version    = 9
	nfv9HeaderLen  = 20
	nfv9TemplateID = 256
	nfv9MaxPerPkt  = 30

	// Standard v9 field types (RFC 3954 §8).
	nfv9FieldInBytes  = 1
	nfv9FieldInPkts   = 2
	nfv9FieldProtocol = 4
	nfv9FieldSrcPort  = 7
	nfv9FieldSrcAddr  = 8
	nfv9FieldDstPort  = 11
	nfv9FieldDstAddr  = 12
	nfv9FieldLast     = 21
	nfv9FieldFirst    = 22

	// Private field type (outside the IANA-assigned range) carrying the
	// one-byte scenario label.
	nfv9FieldLabel = 0xE001
)

// nfField is one template field: a type, an on-wire length, and (for
// IPFIX) an optional enterprise number.
type nfField struct {
	typ        uint16
	length     int
	enterprise bool
	pen        uint32
}

// nfv9Template is the field layout this package exports: 30 bytes per
// record.
var nfv9Template = []nfField{
	{typ: nfv9FieldSrcAddr, length: 4},
	{typ: nfv9FieldDstAddr, length: 4},
	{typ: nfv9FieldInPkts, length: 4},
	{typ: nfv9FieldInBytes, length: 4},
	{typ: nfv9FieldFirst, length: 4},
	{typ: nfv9FieldLast, length: 4},
	{typ: nfv9FieldSrcPort, length: 2},
	{typ: nfv9FieldDstPort, length: 2},
	{typ: nfv9FieldProtocol, length: 1},
	{typ: nfv9FieldLabel, length: 1},
}

func fieldsRecordLen(fields []nfField) int {
	n := 0
	for _, f := range fields {
		n += f.length
	}
	return n
}

// NFV9Writer streams flow records as NetFlow v9 export packets with
// bounded memory, mirroring NFV5Writer: at most one 30-record packet is
// buffered, and output is byte-identical to WriteNetFlowV9 over the same
// record sequence and base. The template flowset rides in the first
// emitted packet only.
type NFV9Writer struct {
	bw            *bufio.Writer
	base          int64
	batch         []FlowRecord
	seq           uint32
	wroteTemplate bool
}

// NewNFV9Writer returns a streaming v9 encoder with the given SysUptime
// origin (microseconds). Call Flush after the last record.
func NewNFV9Writer(w io.Writer, base int64) *NFV9Writer {
	return &NFV9Writer{
		bw:    bufio.NewWriter(w),
		base:  base,
		batch: make([]FlowRecord, 0, nfv9MaxPerPkt),
	}
}

// Write appends one flow record, emitting an export packet whenever 30
// records are buffered. Records past the 32-bit millisecond uptime range
// fail with ErrUptimeOverflow and are not buffered.
func (nw *NFV9Writer) Write(r FlowRecord) error {
	if err := checkUptime(r, nw.base); err != nil {
		return err
	}
	nw.batch = append(nw.batch, r)
	if len(nw.batch) < nfv9MaxPerPkt {
		return nil
	}
	return nw.emit()
}

func (nw *NFV9Writer) emit() error {
	if len(nw.batch) == 0 {
		return nil
	}
	if err := nw.writePacket(); err != nil {
		return err
	}
	nw.seq++
	nw.batch = nw.batch[:0]
	return nil
}

// Flush emits any trailing partial export packet and drains the buffer.
func (nw *NFV9Writer) Flush() error {
	if err := nw.emit(); err != nil {
		return err
	}
	return nw.bw.Flush()
}

func (nw *NFV9Writer) writePacket() error {
	recLen := fieldsRecordLen(nfv9Template)
	dataLen := 4 + recLen*len(nw.batch)
	pad := (4 - dataLen%4) % 4
	dataLen += pad

	count := len(nw.batch)
	tmplLen := 0
	if !nw.wroteTemplate {
		tmplLen = 4 + 4 + 4*len(nfv9Template)
		count++ // the template record counts toward the header count
	}

	buf := make([]byte, nfv9HeaderLen+tmplLen+dataLen)
	binary.BigEndian.PutUint16(buf[0:], nfv9Version)
	binary.BigEndian.PutUint16(buf[2:], uint16(count))
	// SysUptime: the latest flow end in this packet, ms.
	var up uint32
	for _, r := range nw.batch {
		if ms := clampMS((r.End() - nw.base) / 1000); ms > up {
			up = ms
		}
	}
	binary.BigEndian.PutUint32(buf[4:], up)
	// unix_secs anchored at the trace epoch (0): left zero.
	binary.BigEndian.PutUint32(buf[12:], nw.seq)
	// source_id left zero.

	off := nfv9HeaderLen
	if !nw.wroteTemplate {
		binary.BigEndian.PutUint16(buf[off:], 0) // template flowset id
		binary.BigEndian.PutUint16(buf[off+2:], uint16(tmplLen))
		binary.BigEndian.PutUint16(buf[off+4:], nfv9TemplateID)
		binary.BigEndian.PutUint16(buf[off+6:], uint16(len(nfv9Template)))
		off += 8
		for _, f := range nfv9Template {
			binary.BigEndian.PutUint16(buf[off:], f.typ)
			binary.BigEndian.PutUint16(buf[off+2:], uint16(f.length))
			off += 4
		}
		nw.wroteTemplate = true
	}

	binary.BigEndian.PutUint16(buf[off:], nfv9TemplateID)
	binary.BigEndian.PutUint16(buf[off+2:], uint16(dataLen))
	off += 4
	for _, r := range nw.batch {
		binary.BigEndian.PutUint32(buf[off:], uint32(r.Tuple.SrcIP))
		binary.BigEndian.PutUint32(buf[off+4:], uint32(r.Tuple.DstIP))
		binary.BigEndian.PutUint32(buf[off+8:], clampU32(r.Packets))
		binary.BigEndian.PutUint32(buf[off+12:], clampU32(r.Bytes))
		binary.BigEndian.PutUint32(buf[off+16:], clampMS((r.Start-nw.base)/1000))
		binary.BigEndian.PutUint32(buf[off+20:], clampMS((r.End()-nw.base)/1000))
		binary.BigEndian.PutUint16(buf[off+24:], r.Tuple.SrcPort)
		binary.BigEndian.PutUint16(buf[off+26:], r.Tuple.DstPort)
		buf[off+28] = byte(r.Tuple.Proto)
		buf[off+29] = byte(r.Label)
		off += recLen
	}
	// Trailing pad bytes are already zero.

	if _, err := nw.bw.Write(buf); err != nil {
		return fmt.Errorf("trace: write nfv9 packet: %w", err)
	}
	return nil
}

// ReadNetFlowV9 parses a stream of NetFlow v9 export packets written by
// WriteNetFlowV9 (or any v9 exporter using compatible field types). Data
// flowsets must follow the template that describes them. Times come back
// in microseconds relative to the stream's SysUptime origin; fields this
// package does not model are skipped.
func ReadNetFlowV9(r io.Reader) (*FlowTrace, error) {
	br := bufio.NewReader(r)
	out := &FlowTrace{}
	templates := make(map[uint16][]nfField)
	var hdr [nfv9HeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("trace: read nfv9 header: %w", err)
		}
		if v := binary.BigEndian.Uint16(hdr[0:]); v != nfv9Version {
			return nil, fmt.Errorf("trace: unsupported NetFlow version %d", v)
		}
		count := int(binary.BigEndian.Uint16(hdr[2:]))
		if count == 0 {
			return nil, fmt.Errorf("trace: nfv9 packet claims 0 records")
		}
		parsed := 0
		for parsed < count {
			var fs [4]byte
			if _, err := io.ReadFull(br, fs[:]); err != nil {
				return nil, fmt.Errorf("trace: read nfv9 flowset: %w", err)
			}
			setID := binary.BigEndian.Uint16(fs[0:])
			length := int(binary.BigEndian.Uint16(fs[2:]))
			if length < 4 {
				return nil, fmt.Errorf("trace: nfv9 flowset length %d", length)
			}
			body := make([]byte, length-4)
			if _, err := io.ReadFull(br, body); err != nil {
				return nil, fmt.Errorf("trace: read nfv9 flowset body: %w", err)
			}
			switch {
			case setID == 0:
				n, err := parseNFv9Templates(body, templates)
				if err != nil {
					return nil, err
				}
				parsed += n
			case setID >= 256:
				fields, ok := templates[setID]
				if !ok {
					return nil, fmt.Errorf("trace: nfv9 data flowset %d before its template", setID)
				}
				recLen := fieldsRecordLen(fields)
				n := 0
				for off := 0; off+recLen <= len(body); off += recLen {
					out.Records = append(out.Records, decodeNFv9Record(body[off:off+recLen], fields))
					n++
				}
				if n == 0 {
					return nil, fmt.Errorf("trace: nfv9 data flowset %d holds no records", setID)
				}
				parsed += n
			default:
				return nil, fmt.Errorf("trace: nfv9 reserved flowset id %d", setID)
			}
		}
	}
}

// parseNFv9Templates parses a template flowset body into templates and
// returns the number of template records it defined.
func parseNFv9Templates(body []byte, templates map[uint16][]nfField) (int, error) {
	n := 0
	off := 0
	for off+4 <= len(body) {
		id := binary.BigEndian.Uint16(body[off:])
		fc := int(binary.BigEndian.Uint16(body[off+2:]))
		off += 4
		if id < 256 {
			return 0, fmt.Errorf("trace: nfv9 template id %d reserved", id)
		}
		if fc == 0 || fc > 128 {
			return 0, fmt.Errorf("trace: nfv9 template %d claims %d fields", id, fc)
		}
		if off+4*fc > len(body) {
			return 0, fmt.Errorf("trace: nfv9 template %d truncated", id)
		}
		fields := make([]nfField, fc)
		for i := range fields {
			typ := binary.BigEndian.Uint16(body[off:])
			ln := int(binary.BigEndian.Uint16(body[off+2:]))
			off += 4
			if ln == 0 || ln > 16 {
				return 0, fmt.Errorf("trace: nfv9 template %d field length %d", id, ln)
			}
			fields[i] = nfField{typ: typ, length: ln}
		}
		templates[id] = fields
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("trace: nfv9 template flowset holds no templates")
	}
	return n, nil
}

func decodeNFv9Record(data []byte, fields []nfField) FlowRecord {
	var fr FlowRecord
	var first, last uint32
	off := 0
	for _, f := range fields {
		v := data[off : off+f.length]
		switch {
		case f.typ == nfv9FieldSrcAddr && f.length == 4:
			fr.Tuple.SrcIP = IPv4(binary.BigEndian.Uint32(v))
		case f.typ == nfv9FieldDstAddr && f.length == 4:
			fr.Tuple.DstIP = IPv4(binary.BigEndian.Uint32(v))
		case f.typ == nfv9FieldInPkts && f.length == 4:
			fr.Packets = int64(binary.BigEndian.Uint32(v))
		case f.typ == nfv9FieldInBytes && f.length == 4:
			fr.Bytes = int64(binary.BigEndian.Uint32(v))
		case f.typ == nfv9FieldFirst && f.length == 4:
			first = binary.BigEndian.Uint32(v)
		case f.typ == nfv9FieldLast && f.length == 4:
			last = binary.BigEndian.Uint32(v)
		case f.typ == nfv9FieldSrcPort && f.length == 2:
			fr.Tuple.SrcPort = binary.BigEndian.Uint16(v)
		case f.typ == nfv9FieldDstPort && f.length == 2:
			fr.Tuple.DstPort = binary.BigEndian.Uint16(v)
		case f.typ == nfv9FieldProtocol && f.length == 1:
			fr.Tuple.Proto = Protocol(v[0])
		case f.typ == nfv9FieldLabel && f.length == 1:
			if Label(v[0]) < NumLabels {
				fr.Label = Label(v[0])
			}
		}
		off += f.length
	}
	fr.Start = int64(first) * 1000
	fr.Duration = (int64(last) - int64(first)) * 1000
	return fr
}
