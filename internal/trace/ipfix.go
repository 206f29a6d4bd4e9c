package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Template-based IPFIX export (RFC 7011, protocol version 10). IPFIX
// messages carry an explicit length, absolute 64-bit millisecond flow
// timestamps (no SysUptime wrap), and enterprise-scoped information
// elements; the scenario label rides in an enterprise element so labeled
// traces round-trip. Counters share the v5 clamping discipline.

const (
	ipfixVersion    = 10
	ipfixHeaderLen  = 16
	ipfixTemplateID = 256
	ipfixMaxPerMsg  = 30

	ipfixSetTemplate = 2

	// Standard IPFIX information elements (IANA registry).
	ipfixElemOctets   = 1
	ipfixElemPackets  = 2
	ipfixElemProtocol = 4
	ipfixElemSrcPort  = 7
	ipfixElemSrcAddr  = 8
	ipfixElemDstPort  = 11
	ipfixElemDstAddr  = 12
	ipfixElemStartMS  = 152
	ipfixElemEndMS    = 153

	// Enterprise-scoped label element: element 1 under this package's
	// private enterprise number.
	ipfixElemLabel = 1
	ipfixLabelPEN  = 0x4E455453 // "NETS"

	ipfixEnterpriseBit = 0x8000
)

// ipfixTemplate is the field layout this package exports: 38 bytes per
// record.
var ipfixTemplate = []nfField{
	{typ: ipfixElemSrcAddr, length: 4},
	{typ: ipfixElemDstAddr, length: 4},
	{typ: ipfixElemPackets, length: 4},
	{typ: ipfixElemOctets, length: 4},
	{typ: ipfixElemStartMS, length: 8},
	{typ: ipfixElemEndMS, length: 8},
	{typ: ipfixElemSrcPort, length: 2},
	{typ: ipfixElemDstPort, length: 2},
	{typ: ipfixElemProtocol, length: 1},
	{typ: ipfixElemLabel, length: 1, enterprise: true, pen: ipfixLabelPEN},
}

// IPFIXWriter streams flow records as IPFIX messages with bounded memory,
// mirroring NFV5Writer: at most one 30-record message is buffered, and
// output is byte-identical to WriteIPFIX over the same record sequence.
type IPFIXWriter struct {
	bw            *bufio.Writer
	batch         []FlowRecord
	seq           uint32
	wroteTemplate bool
}

// NewIPFIXWriter returns a streaming IPFIX encoder. Call Flush after the
// last record to emit the trailing partial message.
func NewIPFIXWriter(w io.Writer) *IPFIXWriter {
	return &IPFIXWriter{
		bw:    bufio.NewWriter(w),
		batch: make([]FlowRecord, 0, ipfixMaxPerMsg),
	}
}

// Write appends one flow record, emitting a message whenever 30 records
// are buffered.
func (iw *IPFIXWriter) Write(r FlowRecord) error {
	iw.batch = append(iw.batch, r)
	if len(iw.batch) < ipfixMaxPerMsg {
		return nil
	}
	return iw.emit()
}

func (iw *IPFIXWriter) emit() error {
	if len(iw.batch) == 0 {
		return nil
	}
	if err := iw.writeMessage(); err != nil {
		return err
	}
	iw.seq += uint32(len(iw.batch))
	iw.batch = iw.batch[:0]
	return nil
}

// Flush emits any trailing partial message and drains the buffer.
func (iw *IPFIXWriter) Flush() error {
	if err := iw.emit(); err != nil {
		return err
	}
	return iw.bw.Flush()
}

func ipfixMS(us int64) uint64 {
	ms := us / 1000
	if ms < 0 {
		return 0
	}
	return uint64(ms)
}

func (iw *IPFIXWriter) writeMessage() error {
	recLen := fieldsRecordLen(ipfixTemplate)
	dataLen := 4 + recLen*len(iw.batch)
	pad := (4 - dataLen%4) % 4
	dataLen += pad

	tmplLen := 0
	if !iw.wroteTemplate {
		tmplLen = 4 + 4
		for _, f := range ipfixTemplate {
			if f.enterprise {
				tmplLen += 8
			} else {
				tmplLen += 4
			}
		}
	}

	buf := make([]byte, ipfixHeaderLen+tmplLen+dataLen)
	binary.BigEndian.PutUint16(buf[0:], ipfixVersion)
	binary.BigEndian.PutUint16(buf[2:], uint16(len(buf)))
	// export time anchored at the trace epoch (0): left zero.
	// Sequence number: count of data records previously exported.
	binary.BigEndian.PutUint32(buf[8:], iw.seq)
	// observation domain left zero.

	off := ipfixHeaderLen
	if !iw.wroteTemplate {
		binary.BigEndian.PutUint16(buf[off:], ipfixSetTemplate)
		binary.BigEndian.PutUint16(buf[off+2:], uint16(tmplLen))
		binary.BigEndian.PutUint16(buf[off+4:], ipfixTemplateID)
		binary.BigEndian.PutUint16(buf[off+6:], uint16(len(ipfixTemplate)))
		off += 8
		for _, f := range ipfixTemplate {
			typ := f.typ
			if f.enterprise {
				typ |= ipfixEnterpriseBit
			}
			binary.BigEndian.PutUint16(buf[off:], typ)
			binary.BigEndian.PutUint16(buf[off+2:], uint16(f.length))
			off += 4
			if f.enterprise {
				binary.BigEndian.PutUint32(buf[off:], f.pen)
				off += 4
			}
		}
		iw.wroteTemplate = true
	}

	binary.BigEndian.PutUint16(buf[off:], ipfixTemplateID)
	binary.BigEndian.PutUint16(buf[off+2:], uint16(dataLen))
	off += 4
	for _, r := range iw.batch {
		binary.BigEndian.PutUint32(buf[off:], uint32(r.Tuple.SrcIP))
		binary.BigEndian.PutUint32(buf[off+4:], uint32(r.Tuple.DstIP))
		binary.BigEndian.PutUint32(buf[off+8:], clampU32(r.Packets))
		binary.BigEndian.PutUint32(buf[off+12:], clampU32(r.Bytes))
		binary.BigEndian.PutUint64(buf[off+16:], ipfixMS(r.Start))
		binary.BigEndian.PutUint64(buf[off+24:], ipfixMS(r.End()))
		binary.BigEndian.PutUint16(buf[off+32:], r.Tuple.SrcPort)
		binary.BigEndian.PutUint16(buf[off+34:], r.Tuple.DstPort)
		buf[off+36] = byte(r.Tuple.Proto)
		buf[off+37] = byte(r.Label)
		off += recLen
	}
	// Trailing pad bytes are already zero.

	if _, err := iw.bw.Write(buf); err != nil {
		return fmt.Errorf("trace: write ipfix message: %w", err)
	}
	return nil
}

// ReadIPFIX parses a stream of IPFIX messages written by WriteIPFIX (or
// any exporter using compatible information elements). Data sets must
// follow the template that describes them. Times come back in
// microseconds from the trace epoch; elements this package does not model
// are skipped.
func ReadIPFIX(r io.Reader) (*FlowTrace, error) {
	br := bufio.NewReader(r)
	out := &FlowTrace{}
	templates := make(map[uint16][]nfField)
	var hdr [ipfixHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("trace: read ipfix header: %w", err)
		}
		if v := binary.BigEndian.Uint16(hdr[0:]); v != ipfixVersion {
			return nil, fmt.Errorf("trace: unsupported IPFIX version %d", v)
		}
		length := int(binary.BigEndian.Uint16(hdr[2:]))
		if length < ipfixHeaderLen {
			return nil, fmt.Errorf("trace: ipfix message length %d", length)
		}
		body := make([]byte, length-ipfixHeaderLen)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, fmt.Errorf("trace: read ipfix message body: %w", err)
		}
		off := 0
		for off < len(body) {
			if off+4 > len(body) {
				return nil, fmt.Errorf("trace: ipfix trailing bytes after last set")
			}
			setID := binary.BigEndian.Uint16(body[off:])
			setLen := int(binary.BigEndian.Uint16(body[off+2:]))
			if setLen < 4 || off+setLen > len(body) {
				return nil, fmt.Errorf("trace: ipfix set length %d", setLen)
			}
			set := body[off+4 : off+setLen]
			off += setLen
			switch {
			case setID == ipfixSetTemplate:
				if err := parseIPFIXTemplates(set, templates); err != nil {
					return nil, err
				}
			case setID >= 256:
				fields, ok := templates[setID]
				if !ok {
					return nil, fmt.Errorf("trace: ipfix data set %d before its template", setID)
				}
				recLen := fieldsRecordLen(fields)
				for o := 0; o+recLen <= len(set); o += recLen {
					out.Records = append(out.Records, decodeIPFIXRecord(set[o:o+recLen], fields))
				}
			default:
				return nil, fmt.Errorf("trace: ipfix unsupported set id %d", setID)
			}
		}
	}
}

// parseIPFIXTemplates parses a template set body into templates.
func parseIPFIXTemplates(body []byte, templates map[uint16][]nfField) error {
	off := 0
	n := 0
	for off+4 <= len(body) {
		id := binary.BigEndian.Uint16(body[off:])
		fc := int(binary.BigEndian.Uint16(body[off+2:]))
		off += 4
		if id < 256 {
			return fmt.Errorf("trace: ipfix template id %d reserved", id)
		}
		if fc == 0 || fc > 128 {
			return fmt.Errorf("trace: ipfix template %d claims %d fields", id, fc)
		}
		fields := make([]nfField, fc)
		for i := range fields {
			if off+4 > len(body) {
				return fmt.Errorf("trace: ipfix template %d truncated", id)
			}
			typ := binary.BigEndian.Uint16(body[off:])
			ln := int(binary.BigEndian.Uint16(body[off+2:]))
			off += 4
			f := nfField{typ: typ &^ ipfixEnterpriseBit, length: ln}
			if typ&ipfixEnterpriseBit != 0 {
				if off+4 > len(body) {
					return fmt.Errorf("trace: ipfix template %d truncated", id)
				}
				f.enterprise = true
				f.pen = binary.BigEndian.Uint32(body[off:])
				off += 4
			}
			if ln == 0 || ln > 16 {
				return fmt.Errorf("trace: ipfix template %d field length %d", id, ln)
			}
			fields[i] = f
		}
		templates[id] = fields
		n++
	}
	if n == 0 {
		return fmt.Errorf("trace: ipfix template set holds no templates")
	}
	return nil
}

func decodeIPFIXRecord(data []byte, fields []nfField) FlowRecord {
	var fr FlowRecord
	var startMS, endMS uint64
	off := 0
	for _, f := range fields {
		v := data[off : off+f.length]
		switch {
		case f.enterprise:
			if f.typ == ipfixElemLabel && f.pen == ipfixLabelPEN && f.length == 1 && Label(v[0]) < NumLabels {
				fr.Label = Label(v[0])
			}
		case f.typ == ipfixElemSrcAddr && f.length == 4:
			fr.Tuple.SrcIP = IPv4(binary.BigEndian.Uint32(v))
		case f.typ == ipfixElemDstAddr && f.length == 4:
			fr.Tuple.DstIP = IPv4(binary.BigEndian.Uint32(v))
		case f.typ == ipfixElemPackets && f.length == 4:
			fr.Packets = int64(binary.BigEndian.Uint32(v))
		case f.typ == ipfixElemOctets && f.length == 4:
			fr.Bytes = int64(binary.BigEndian.Uint32(v))
		case f.typ == ipfixElemStartMS && f.length == 8:
			startMS = binary.BigEndian.Uint64(v)
		case f.typ == ipfixElemEndMS && f.length == 8:
			endMS = binary.BigEndian.Uint64(v)
		case f.typ == ipfixElemSrcPort && f.length == 2:
			fr.Tuple.SrcPort = binary.BigEndian.Uint16(v)
		case f.typ == ipfixElemDstPort && f.length == 2:
			fr.Tuple.DstPort = binary.BigEndian.Uint16(v)
		case f.typ == ipfixElemProtocol && f.length == 1:
			fr.Tuple.Proto = Protocol(v[0])
		}
		off += f.length
	}
	const maxUS = (1 << 62) / 1000 // keep µs conversion in int64 range
	if startMS > maxUS {
		startMS = maxUS
	}
	if endMS > maxUS {
		endMS = maxUS
	}
	fr.Start = int64(startMS) * 1000
	fr.Duration = (int64(endMS) - int64(startMS)) * 1000
	return fr
}
