// Package trace defines the packet- and flow-header trace model NetShare
// operates on: IPv4 five-tuples, packet header records (PCAP-like), flow
// header records (NetFlow-like), measurement epochs, the merge / flow-split
// / time-chunk transformations of the paper's Insights 1 and 3, and header
// validity checks.
//
// The design follows gopacket's Flow/Endpoint conventions: five-tuples are
// small comparable values usable as map keys, with a fast symmetric-capable
// hash for load balancing and grouping.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strconv"
)

// IPv4 is an IPv4 address in host byte order.
type IPv4 uint32

// ErrIPv6Unsupported is the typed rejection for IPv6 addresses arriving
// in a context that can only model IPv4 (CSV trace columns, the trained
// embedding space, NetFlow v5 export). Callers that *can* handle IPv6 —
// the ingest flow table keys both families — never see it; everything
// else wraps it so errors.Is can distinguish "this was real IPv6 input"
// from garbage.
var ErrIPv6Unsupported = errors.New("trace: IPv6 address in IPv4-only context")

// ParseIPv4 parses dotted-quad notation. A syntactically valid IPv6
// address is rejected with an error wrapping ErrIPv6Unsupported so
// callers can tell real v6 input apart from malformed text.
func ParseIPv4(s string) (IPv4, error) {
	addr, err := netip.ParseAddr(s)
	if err != nil {
		return 0, fmt.Errorf("trace: invalid IPv4 address %q", s)
	}
	if !addr.Is4() {
		return 0, fmt.Errorf("trace: address %q: %w", s, ErrIPv6Unsupported)
	}
	b := addr.As4()
	return IPv4FromBytes(b[0], b[1], b[2], b[3]), nil
}

// IPv4FromBytes builds an address from its four octets.
func IPv4FromBytes(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the address's four octets.
func (ip IPv4) Octets() [4]byte {
	return [4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}
}

// String returns dotted-quad notation.
func (ip IPv4) String() string {
	return string(ip.AppendTo(make([]byte, 0, len("255.255.255.255"))))
}

// AppendTo appends the dotted-quad notation of ip to b.
func (ip IPv4) AppendTo(b []byte) []byte {
	for i, o := range ip.Octets() {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(o), 10)
	}
	return b
}

// IsMulticast reports whether ip is in 224.0.0.0/4.
func (ip IPv4) IsMulticast() bool { return ip>>28 == 0xE }

// IsBroadcastPrefix reports whether the first octet is 255 (the paper's
// Appendix B Test 1 treats 255.x.x.x source addresses as invalid).
func (ip IPv4) IsBroadcastPrefix() bool { return ip>>24 == 255 }

// IsZeroPrefix reports whether the first octet is 0 (invalid destination
// per Appendix B Test 1).
func (ip IPv4) IsZeroPrefix() bool { return ip>>24 == 0 }

// Protocol is an IP protocol number.
type Protocol uint8

// The protocols the paper's datasets contain.
const (
	ICMP Protocol = 1
	TCP  Protocol = 6
	UDP  Protocol = 17
)

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case ICMP:
		return "ICMP"
	case TCP:
		return "TCP"
	case UDP:
		return "UDP"
	}
	return fmt.Sprintf("PROTO(%d)", uint8(p))
}

// FiveTuple identifies a flow: source/destination address and port plus
// protocol. It is comparable and usable as a map key.
type FiveTuple struct {
	SrcIP, DstIP     IPv4
	SrcPort, DstPort uint16
	Proto            Protocol
}

// String renders the tuple as "src:sport > dst:dport/PROTO".
func (ft FiveTuple) String() string {
	return fmt.Sprintf("%s:%d > %s:%d/%s", ft.SrcIP, ft.SrcPort, ft.DstIP, ft.DstPort, ft.Proto)
}

// FastHash returns a 64-bit FNV-1a style hash of the tuple, suitable for
// sketch hashing and shard selection. It is NOT symmetric; combine with
// Reverse for bidirectional grouping.
func (ft FiveTuple) FastHash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64, bytes int) {
		for i := 0; i < bytes; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(ft.SrcIP), 4)
	mix(uint64(ft.DstIP), 4)
	mix(uint64(ft.SrcPort), 2)
	mix(uint64(ft.DstPort), 2)
	mix(uint64(ft.Proto), 1)
	return h
}

// Key4 is the compact comparable byte-key of an IPv4 five-tuple, usable
// directly as a map key and hashable without allocation. Layout (13
// bytes, all multi-byte fields big-endian, following go-flows'
// fiveTuple4): src IP 4 | dst IP 4 | proto 1 | src port 2 | dst port 2.
type Key4 [13]byte

// Key returns the tuple's compact byte-key.
func (ft FiveTuple) Key() Key4 {
	var k Key4
	binary.BigEndian.PutUint32(k[0:], uint32(ft.SrcIP))
	binary.BigEndian.PutUint32(k[4:], uint32(ft.DstIP))
	k[8] = byte(ft.Proto)
	binary.BigEndian.PutUint16(k[9:], ft.SrcPort)
	binary.BigEndian.PutUint16(k[11:], ft.DstPort)
	return k
}

// Tuple reconstructs the five-tuple the key encodes.
func (k Key4) Tuple() FiveTuple {
	return FiveTuple{
		SrcIP:   IPv4(binary.BigEndian.Uint32(k[0:])),
		DstIP:   IPv4(binary.BigEndian.Uint32(k[4:])),
		Proto:   Protocol(k[8]),
		SrcPort: binary.BigEndian.Uint16(k[9:]),
		DstPort: binary.BigEndian.Uint16(k[11:]),
	}
}

// Hash returns the FNV-1a hash of the key bytes. Key4 and Key6 hashes
// share one keyspace (fnvHash over the raw layouts), so a mixed-family
// flow table can shard on Hash alone.
func (k Key4) Hash() uint64 { return fnvHash(k[:]) }

// fnvHash is 64-bit FNV-1a over b.
func fnvHash(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// ServicePorts are the well-known service ports the paper's Figure 3
// examines (DNS, HTTP, SMB, HTTPS, FTP).
var ServicePorts = []uint16{53, 80, 445, 443, 21}

// PortProtocol returns the protocol a well-known port implies, or 0 when
// the port does not pin the protocol. Used by validity Test 3.
func PortProtocol(port uint16) Protocol {
	switch port {
	case 80, 443, 21, 22, 25, 445: // HTTP, HTTPS, FTP, SSH, SMTP, SMB → TCP
		return TCP
	case 123, 161, 67, 68: // NTP, SNMP, DHCP → UDP
		return UDP
	}
	return 0 // 53 (DNS) and others legitimately run on both
}
