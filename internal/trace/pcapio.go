package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary libpcap (.pcap) I/O so generated traces interoperate with
// standard tooling (tcpdump, Wireshark, gopacket). Packets are written as
// raw IPv4 (link type 101, LINKTYPE_RAW): a 20-byte header with a valid
// checksum followed by zero payload padding up to the IP total length,
// exactly the header-only traces the paper generates.

const (
	pcapMagicMicros = 0xa1b2c3d4 // microsecond-resolution, native order
	pcapVersionMaj  = 2
	pcapVersionMin  = 4
	linkTypeRaw     = 101 // LINKTYPE_RAW: raw IPv4/IPv6
	// pcapSnapLen caps the bytes captured per packet. Header-only traces
	// never need more than the 20-byte IPv4 header, but we keep a
	// conventional snap length for tool compatibility.
	pcapSnapLen = 65535
	// maxStoredBytes bounds how much of each packet body is materialized
	// on write: the IP header plus up to this much zero payload.
	maxStoredBytes = 64
)

// PCAPWriter encodes packets to libpcap format one at a time, so a
// download handler can stream a trace of any length with bounded memory
// instead of materializing the whole encoded capture first. Output is
// byte-identical to WritePCAP over the same packet sequence.
type PCAPWriter struct {
	bw *bufio.Writer
	n  int // packets written, for error context
}

// NewPCAPWriter writes the libpcap file header and returns a streaming
// record encoder. Call Flush after the last packet.
func NewPCAPWriter(w io.Writer) *PCAPWriter {
	bw := bufio.NewWriter(w)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], pcapVersionMaj)
	binary.LittleEndian.PutUint16(hdr[6:], pcapVersionMin)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkTypeRaw)
	// A failed write sticks in the buffer and surfaces at Write or Flush.
	_, _ = bw.Write(hdr[:])
	return &PCAPWriter{bw: bw}
}

// Write appends one packet record.
func (pw *PCAPWriter) Write(p Packet) error {
	var rec [16]byte
	body := packetBytes(p)
	binary.LittleEndian.PutUint32(rec[0:], uint32(p.Time/1_000_000))
	binary.LittleEndian.PutUint32(rec[4:], uint32(p.Time%1_000_000))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[12:], uint32(p.Size))
	if _, err := pw.bw.Write(rec[:]); err != nil {
		return fmt.Errorf("trace: write pcap record %d: %w", pw.n, err)
	}
	if _, err := pw.bw.Write(body); err != nil {
		return fmt.Errorf("trace: write pcap packet %d: %w", pw.n, err)
	}
	pw.n++
	return nil
}

// Flush drains the buffered writer; the capture is complete afterwards.
func (pw *PCAPWriter) Flush() error { return pw.bw.Flush() }

// packetBytes materializes the stored bytes of p: IPv4 header, the L4
// port words for TCP/UDP, and zero padding, truncated at maxStoredBytes.
func packetBytes(p Packet) []byte {
	h := IPv4Header{
		TotalLength: uint16(clampInt(p.Size, headerLen, MaxPacket)),
		Flags:       p.Flags,
		TTL:         p.TTL,
		Protocol:    p.Tuple.Proto,
		SrcIP:       p.Tuple.SrcIP,
		DstIP:       p.Tuple.DstIP,
	}
	b := h.Marshal()
	if p.Tuple.Proto == TCP || p.Tuple.Proto == UDP {
		var ports [4]byte
		binary.BigEndian.PutUint16(ports[0:], p.Tuple.SrcPort)
		binary.BigEndian.PutUint16(ports[2:], p.Tuple.DstPort)
		b = append(b, ports[:]...)
	}
	stored := p.Size
	if stored > maxStoredBytes {
		stored = maxStoredBytes
	}
	if stored > len(b) {
		b = append(b, make([]byte, stored-len(b))...)
	}
	return b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Reading side: a streaming reader covering the captures real tooling
// produces, not just our own writer's output. Both byte orders (the
// magic doubles as the endianness marker), microsecond and nanosecond
// timestamp magics, and the two link layers header traces come in as —
// LINKTYPE_RAW (the writer's native format) and LINKTYPE_ETHERNET with
// optional 802.1Q tags. IPv4 and IPv6 network layers are both decoded;
// anything else is surfaced as a non-IP record for the caller to count.

const (
	pcapMagicNanos   = 0xa1b23c4d // nanosecond-resolution magic
	linkTypeEthernet = 1          // LINKTYPE_ETHERNET (EN10MB)
	// maxRecordBytes bounds a single record's stored bytes regardless of
	// what the file header's snaplen claims, so a lying caplen field
	// cannot force a huge allocation.
	maxRecordBytes = 1 << 18

	etherTypeIPv4 = 0x0800
	etherTypeIPv6 = 0x86dd
	etherTypeVLAN = 0x8100 // 802.1Q tag
	etherTypeQinQ = 0x88a8 // 802.1ad service tag
)

// ErrPacketParse tags per-packet decode failures (truncated or
// malformed network headers inside a well-framed pcap record). The
// stream remains usable after one: the record's bytes were fully
// consumed, so a tolerant caller can count it and call Next again.
var ErrPacketParse = errors.New("trace: unparseable packet")

// ErrNonIP tags records whose link payload is neither IPv4 nor IPv6
// (ARP and friends on Ethernet captures). Like ErrPacketParse it is
// per-record: skip and continue.
var ErrNonIP = errors.New("trace: non-IP packet")

// RawPacket is one decoded capture record. Family selects which of the
// two header views is populated: 4 → V4, 6 → V6.
type RawPacket struct {
	Family uint8
	V4     Packet  // valid when Family == 4
	V6     Packet6 // valid when Family == 6

	// TCPFlags holds the TCP flag byte (FIN=0x01, RST=0x04, ...) when
	// the capture stored enough of the transport header; HasTCPFlags
	// says whether it did. The flow table uses FIN/RST for teardown.
	TCPFlags    uint8
	HasTCPFlags bool
}

// Time returns the record's capture timestamp in microseconds.
func (rp RawPacket) Time() int64 {
	if rp.Family == 6 {
		return rp.V6.Time
	}
	return rp.V4.Time
}

// PCAPReader streams records out of a libpcap capture without ever
// buffering more than one record, so arbitrarily large files ingest in
// constant memory.
type PCAPReader struct {
	br       *bufio.Reader
	order    binary.ByteOrder
	nano     bool
	linkType uint32
	recLimit uint32
	idx      int // records consumed, for error context
}

// NewPCAPReader validates the 24-byte file header and returns a reader
// positioned at the first record.
func NewPCAPReader(r io.Reader) (*PCAPReader, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: read pcap header: %w", err)
	}
	pr := &PCAPReader{br: br}
	// The magic is written in the producer's native order, so reading it
	// little-endian yields either the magic (little-endian file) or its
	// byte swap (big-endian file); the nanosecond variants likewise.
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case pcapMagicMicros:
		pr.order = binary.LittleEndian
	case pcapMagicNanos:
		pr.order, pr.nano = binary.LittleEndian, true
	case swap32(pcapMagicMicros):
		pr.order = binary.BigEndian
	case swap32(pcapMagicNanos):
		pr.order, pr.nano = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("trace: unsupported pcap magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	pr.linkType = pr.order.Uint32(hdr[20:])
	if pr.linkType != linkTypeRaw && pr.linkType != linkTypeEthernet {
		return nil, fmt.Errorf("trace: unsupported link type %d (want %d raw IP or %d ethernet)",
			pr.linkType, linkTypeRaw, linkTypeEthernet)
	}
	pr.recLimit = maxRecordBytes
	if snap := pr.order.Uint32(hdr[16:]); snap > 0 && snap < maxRecordBytes {
		pr.recLimit = snap
	}
	return pr, nil
}

// BigEndian reports whether the file uses foreign (big-endian) framing
// on this platform's usual little-endian layout.
func (pr *PCAPReader) BigEndian() bool { return pr.order == binary.BigEndian }

// Next returns the next record. io.EOF marks a clean end of stream.
// Errors wrapping ErrPacketParse or ErrNonIP are per-record — the
// stream stays consumable; any other error is fatal.
func (pr *PCAPReader) Next() (RawPacket, error) {
	var rec [16]byte
	if _, err := io.ReadFull(pr.br, rec[:]); err != nil {
		if err == io.EOF {
			return RawPacket{}, io.EOF
		}
		return RawPacket{}, fmt.Errorf("trace: read pcap record %d: %w", pr.idx, err)
	}
	sec := pr.order.Uint32(rec[0:])
	frac := pr.order.Uint32(rec[4:])
	incl := pr.order.Uint32(rec[8:])
	orig := pr.order.Uint32(rec[12:])
	if incl > pr.recLimit {
		return RawPacket{}, fmt.Errorf("trace: pcap record %d claims %d bytes (limit %d)", pr.idx, incl, pr.recLimit)
	}
	body := make([]byte, incl)
	if _, err := io.ReadFull(pr.br, body); err != nil {
		return RawPacket{}, fmt.Errorf("trace: read pcap record %d body: %w", pr.idx, err)
	}
	idx := pr.idx
	pr.idx++

	ts := int64(sec) * 1_000_000
	if pr.nano {
		ts += int64(frac) / 1_000
	} else {
		ts += int64(frac)
	}

	rp, err := decodeLinkPayload(pr.linkType, body, int(orig))
	if err != nil {
		return RawPacket{}, fmt.Errorf("trace: pcap record %d: %w", idx, err)
	}
	rp.V4.Time, rp.V6.Time = ts, ts
	return rp, nil
}

// decodeLinkPayload strips the link layer and decodes the network
// header. origLen is the record's on-wire length; the link header's
// share of it is subtracted so Packet.Size stays "IP bytes on the wire"
// for both link types.
func decodeLinkPayload(linkType uint32, b []byte, origLen int) (RawPacket, error) {
	if linkType == linkTypeEthernet {
		const ethHeader = 14
		if len(b) < ethHeader {
			return RawPacket{}, fmt.Errorf("%w: %d bytes is short for an ethernet header", ErrPacketParse, len(b))
		}
		etherType := binary.BigEndian.Uint16(b[12:])
		off := ethHeader
		// Peel at most two VLAN tags (802.1ad service + 802.1Q customer).
		for tags := 0; tags < 2 && (etherType == etherTypeVLAN || etherType == etherTypeQinQ); tags++ {
			if len(b) < off+4 {
				return RawPacket{}, fmt.Errorf("%w: truncated VLAN tag", ErrPacketParse)
			}
			etherType = binary.BigEndian.Uint16(b[off+2:])
			off += 4
		}
		switch etherType {
		case etherTypeIPv4, etherTypeIPv6:
			return decodeIP(b[off:], origLen-off)
		default:
			return RawPacket{}, fmt.Errorf("%w: ethertype %#04x", ErrNonIP, etherType)
		}
	}
	return decodeIP(b, origLen)
}

// decodeIP dispatches on the IP version nibble.
func decodeIP(b []byte, origLen int) (RawPacket, error) {
	if len(b) == 0 {
		return RawPacket{}, fmt.Errorf("%w: empty network payload", ErrPacketParse)
	}
	switch b[0] >> 4 {
	case 4:
		return parseRawIPv4(b, origLen)
	case 6:
		return parseRawIPv6(b, origLen)
	default:
		return RawPacket{}, fmt.Errorf("%w: IP version %d", ErrPacketParse, b[0]>>4)
	}
}

// parseRawIPv4 decodes the stored bytes of one IPv4 packet.
func parseRawIPv4(b []byte, origLen int) (RawPacket, error) {
	if len(b) < headerLen {
		return RawPacket{}, fmt.Errorf("%w: %d bytes is short for an IPv4 header", ErrPacketParse, len(b))
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < headerLen || ihl > len(b) {
		return RawPacket{}, fmt.Errorf("%w: bad IHL %d", ErrPacketParse, ihl)
	}
	p := Packet{
		Size:  origLen,
		TTL:   b[8],
		Flags: uint8(binary.BigEndian.Uint16(b[6:]) >> 13),
	}
	p.Tuple.Proto = Protocol(b[9])
	p.Tuple.SrcIP = IPv4(binary.BigEndian.Uint32(b[12:]))
	p.Tuple.DstIP = IPv4(binary.BigEndian.Uint32(b[16:]))
	rp := RawPacket{Family: 4}
	// TCP and UDP start with source/destination port.
	if (p.Tuple.Proto == TCP || p.Tuple.Proto == UDP) && len(b) >= ihl+4 {
		p.Tuple.SrcPort = binary.BigEndian.Uint16(b[ihl:])
		p.Tuple.DstPort = binary.BigEndian.Uint16(b[ihl+2:])
	}
	if p.Tuple.Proto == TCP && len(b) >= ihl+14 {
		rp.TCPFlags, rp.HasTCPFlags = b[ihl+13], true
	}
	rp.V4 = p
	return rp, nil
}

// ipv6HeaderLen is the fixed IPv6 header length (extension headers are
// not chased: the next-header value is kept as the protocol, which is
// exact for the TCP/UDP/ICMPv6 traffic the flow table keys).
const ipv6HeaderLen = 40

// parseRawIPv6 decodes the stored bytes of one IPv6 packet.
func parseRawIPv6(b []byte, origLen int) (RawPacket, error) {
	if len(b) < ipv6HeaderLen {
		return RawPacket{}, fmt.Errorf("%w: %d bytes is short for an IPv6 header", ErrPacketParse, len(b))
	}
	p := Packet6{
		Size:     origLen,
		HopLimit: b[7],
	}
	p.Tuple.Proto = Protocol(b[6])
	copy(p.Tuple.SrcIP[:], b[8:24])
	copy(p.Tuple.DstIP[:], b[24:40])
	rp := RawPacket{Family: 6}
	if (p.Tuple.Proto == TCP || p.Tuple.Proto == UDP) && len(b) >= ipv6HeaderLen+4 {
		p.Tuple.SrcPort = binary.BigEndian.Uint16(b[ipv6HeaderLen:])
		p.Tuple.DstPort = binary.BigEndian.Uint16(b[ipv6HeaderLen+2:])
	}
	if p.Tuple.Proto == TCP && len(b) >= ipv6HeaderLen+14 {
		rp.TCPFlags, rp.HasTCPFlags = b[ipv6HeaderLen+13], true
	}
	rp.V6 = p
	return rp, nil
}

// swap32 reverses a word's byte order.
func swap32(v uint32) uint32 {
	return v<<24 | v>>24 | (v&0xff00)<<8 | (v>>8)&0xff00
}

// ReadPCAP parses a capture into an IPv4 packet trace, the strict
// training-input counterpart of WritePCAP. It accepts everything
// PCAPReader does (both byte orders, micro/nanosecond magics, raw-IP
// and Ethernet link types) but the trace model is IPv4-only, so IPv6
// packets fail with an error wrapping ErrIPv6Unsupported and non-IP or
// malformed records fail with their per-record error. Use
// internal/ingest for tolerant mixed-family assembly.
func ReadPCAP(r io.Reader) (*PacketTrace, error) {
	pr, err := NewPCAPReader(r)
	if err != nil {
		return nil, err
	}
	out := &PacketTrace{}
	for {
		rp, err := pr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if rp.Family == 6 {
			return nil, fmt.Errorf("trace: pcap record %d: %w", pr.idx-1, ErrIPv6Unsupported)
		}
		out.Packets = append(out.Packets, rp.V4)
	}
}
