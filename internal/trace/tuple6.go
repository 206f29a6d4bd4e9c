package trace

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IPv6 support for the ingestion layer. The generative model itself
// stays IPv4 (the paper's datasets are IPv4-only and the embedding
// space is trained on 32-bit addresses), but the flow assembler keys
// and accounts IPv6 traffic so a live capture containing both families
// is ingested losslessly instead of erroring out or silently dropping
// packets.

// IPv6 is a 16-byte IPv6 address in network byte order. It is
// comparable and usable as a map key.
type IPv6 [16]byte

// String returns canonical RFC 5952 notation.
func (ip IPv6) String() string { return netip.AddrFrom16(ip).String() }

// IsMulticast reports whether ip is in ff00::/8.
func (ip IPv6) IsMulticast() bool { return ip[0] == 0xff }

// FiveTuple6 identifies an IPv6 flow. Like FiveTuple it is comparable
// and usable as a map key.
type FiveTuple6 struct {
	SrcIP, DstIP     IPv6
	SrcPort, DstPort uint16
	Proto            Protocol
}

// String renders the tuple as "[src]:sport > [dst]:dport/PROTO".
func (ft FiveTuple6) String() string {
	return fmt.Sprintf("[%s]:%d > [%s]:%d/%s", ft.SrcIP, ft.SrcPort, ft.DstIP, ft.DstPort, ft.Proto)
}

// Key6 is the compact comparable byte-key of an IPv6 five-tuple. Layout
// (37 bytes, go-flows' fiveTuple6): src IP 16 | dst IP 16 | proto 1 |
// src port 2 | dst port 2.
type Key6 [37]byte

// Key returns the tuple's compact byte-key.
func (ft FiveTuple6) Key() Key6 {
	var k Key6
	copy(k[0:16], ft.SrcIP[:])
	copy(k[16:32], ft.DstIP[:])
	k[32] = byte(ft.Proto)
	binary.BigEndian.PutUint16(k[33:], ft.SrcPort)
	binary.BigEndian.PutUint16(k[35:], ft.DstPort)
	return k
}

// Tuple reconstructs the five-tuple the key encodes.
func (k Key6) Tuple() FiveTuple6 {
	var ft FiveTuple6
	copy(ft.SrcIP[:], k[0:16])
	copy(ft.DstIP[:], k[16:32])
	ft.Proto = Protocol(k[32])
	ft.SrcPort = binary.BigEndian.Uint16(k[33:])
	ft.DstPort = binary.BigEndian.Uint16(k[35:])
	return ft
}

// Hash returns the FNV-1a hash of the key bytes, sharing Key4's
// keyspace.
func (k Key6) Hash() uint64 { return fnvHash(k[:]) }

// Packet6 is one IPv6 packet header record plus its capture timestamp,
// the v6 counterpart of Packet. Size is the full IP datagram length
// (40-byte fixed header + payload length), HopLimit the TTL analogue.
type Packet6 struct {
	Time     int64 // microseconds since trace start
	Tuple    FiveTuple6
	Size     int
	HopLimit uint8
}
