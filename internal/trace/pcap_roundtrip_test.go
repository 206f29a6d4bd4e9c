package trace

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
)

// Golden round-trip and fixture tests for the pcap layer: our writer's
// output must survive Write → Read → Write byte-identically, and the
// reader must decode capture variants the writer never produces
// (foreign endianness, nanosecond magic, Ethernet link layer).

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("fixture %s: %v (regenerate with `go run gen.go` in testdata)", name, err)
	}
	return b
}

func TestPCAPGoldenRoundTrip(t *testing.T) {
	orig := samplePacketTrace()
	var first bytes.Buffer
	if err := WritePCAP(&first, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPCAP(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Packets) != len(orig.Packets) {
		t.Fatalf("read %d packets, wrote %d", len(back.Packets), len(orig.Packets))
	}
	for i := range back.Packets {
		if back.Packets[i] != orig.Packets[i] {
			t.Fatalf("packet %d: read %+v, wrote %+v", i, back.Packets[i], orig.Packets[i])
		}
	}
	var second bytes.Buffer
	if err := WritePCAP(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Write→Read→Write is not byte-identical")
	}
}

// rawFixturePackets are the two logical packets both raw-IP fixtures
// carry (see testdata/gen.go).
func rawFixturePackets() []Packet {
	return []Packet{
		{
			Time: 1_000_500,
			Tuple: FiveTuple{
				SrcIP: IPv4FromBytes(10, 0, 0, 1), DstIP: IPv4FromBytes(192, 168, 1, 2),
				SrcPort: 1234, DstPort: 80, Proto: TCP,
			},
			Size: 60, TTL: 64, Flags: 2,
		},
		{
			Time: 2_000_000,
			Tuple: FiveTuple{
				SrcIP: IPv4FromBytes(172, 16, 5, 9), DstIP: IPv4FromBytes(224, 0, 0, 251),
				SrcPort: 5353, DstPort: 5353, Proto: UDP,
			},
			Size: 120, TTL: 1, Flags: 0,
		},
	}
}

func TestPCAPFixtureVariants(t *testing.T) {
	want := rawFixturePackets()
	for _, name := range []string{"v4_raw_be_micro.pcap", "v4_raw_le_nano.pcap"} {
		t.Run(name, func(t *testing.T) {
			tr, err := ReadPCAP(bytes.NewReader(readFixture(t, name)))
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Packets) != len(want) {
				t.Fatalf("got %d packets, want %d", len(tr.Packets), len(want))
			}
			for i := range want {
				if tr.Packets[i] != want[i] {
					t.Fatalf("packet %d: got %+v, want %+v", i, tr.Packets[i], want[i])
				}
			}
			// Every framing variant re-writes to our canonical format
			// identically: decode is framing-independent.
			var out bytes.Buffer
			if err := WritePCAP(&out, tr); err != nil {
				t.Fatal(err)
			}
			var canonical bytes.Buffer
			if err := WritePCAP(&canonical, &PacketTrace{Packets: want}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), canonical.Bytes()) {
				t.Fatal("fixture re-write diverges from canonical form")
			}
		})
	}
}

func TestPCAPReaderHeaderFlags(t *testing.T) {
	pr, err := NewPCAPReader(bytes.NewReader(readFixture(t, "v4_raw_be_micro.pcap")))
	if err != nil {
		t.Fatal(err)
	}
	if !pr.BigEndian() || pr.nano || pr.linkType != 101 {
		t.Fatalf("BE fixture header misread: big=%v nano=%v link=%d",
			pr.BigEndian(), pr.nano, pr.linkType)
	}
	pr, err = NewPCAPReader(bytes.NewReader(readFixture(t, "v4_raw_le_nano.pcap")))
	if err != nil {
		t.Fatal(err)
	}
	if pr.BigEndian() || !pr.nano {
		t.Fatalf("nano fixture header misread: big=%v nano=%v", pr.BigEndian(), pr.nano)
	}
}

func TestPCAPReaderEthernetMixed(t *testing.T) {
	pr, err := NewPCAPReader(bytes.NewReader(readFixture(t, "mixed_eth_le_micro.pcap")))
	if err != nil {
		t.Fatal(err)
	}

	// Frame 1: plain IPv4 TCP with a full TCP header carrying FIN|ACK.
	rp, err := pr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rp.Family != 4 {
		t.Fatalf("frame 1 family = %d", rp.Family)
	}
	p := rp.V4
	if p.Tuple.SrcIP != IPv4FromBytes(10, 1, 1, 1) || p.Tuple.DstIP != IPv4FromBytes(10, 2, 2, 2) ||
		p.Tuple.SrcPort != 4000 || p.Tuple.DstPort != 443 || p.Tuple.Proto != TCP {
		t.Fatalf("frame 1 tuple = %v", p.Tuple)
	}
	if p.Size != 40 {
		t.Fatalf("frame 1 size = %d, want 40 (ethernet header subtracted)", p.Size)
	}
	if !rp.HasTCPFlags || rp.TCPFlags != 0x11 {
		t.Fatalf("frame 1 tcp flags = %#x (has=%v), want 0x11", rp.TCPFlags, rp.HasTCPFlags)
	}

	// Frame 2: VLAN-tagged IPv4 UDP.
	rp, err = pr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rp.Family != 4 || rp.V4.Tuple.Proto != UDP || rp.V4.Tuple.SrcPort != 53 || rp.V4.Size != 28 {
		t.Fatalf("frame 2 = %+v", rp.V4)
	}

	// Frame 3: IPv6 TCP.
	rp, err = pr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rp.Family != 6 {
		t.Fatalf("frame 3 family = %d", rp.Family)
	}
	p6 := rp.V6
	if p6.Tuple.SrcIP.String() != "2001:db8::1" || p6.Tuple.DstIP.String() != "2001:db8::2" {
		t.Fatalf("frame 3 addrs = %s > %s", p6.Tuple.SrcIP, p6.Tuple.DstIP)
	}
	if p6.Tuple.SrcPort != 6000 || p6.Tuple.DstPort != 443 || p6.Tuple.Proto != TCP || p6.HopLimit != 61 {
		t.Fatalf("frame 3 = %+v", p6)
	}
	if !rp.HasTCPFlags || rp.TCPFlags != 0x02 {
		t.Fatalf("frame 3 tcp flags = %#x", rp.TCPFlags)
	}

	// Frame 4: ARP — a per-record ErrNonIP, stream stays readable.
	_, err = pr.Next()
	if !errors.Is(err, ErrNonIP) {
		t.Fatalf("frame 4 err = %v, want ErrNonIP", err)
	}
	if _, err := pr.Next(); err != io.EOF {
		t.Fatalf("after frame 4: %v, want EOF", err)
	}
}

func TestReadPCAPRejectsIPv6Typed(t *testing.T) {
	_, err := ReadPCAP(bytes.NewReader(readFixture(t, "mixed_eth_le_micro.pcap")))
	if !errors.Is(err, ErrIPv6Unsupported) {
		t.Fatalf("err = %v, want ErrIPv6Unsupported", err)
	}
}

func TestCSVRejectsIPv6Typed(t *testing.T) {
	csv := "time_us,src_ip,dst_ip,src_port,dst_port,proto,size,ttl,flags\n" +
		"1,2001:db8::1,10.0.0.2,1,2,6,60,64,0\n"
	_, err := ReadPacketCSV(bytes.NewReader([]byte(csv)))
	if !errors.Is(err, ErrIPv6Unsupported) {
		t.Fatalf("packet csv err = %v, want ErrIPv6Unsupported", err)
	}
	fcsv := "start_us,duration_us,src_ip,dst_ip,src_port,dst_port,proto,packets,bytes,label\n" +
		"1,2,10.0.0.1,2001:db8::2,1,2,6,3,120,benign\n"
	_, err = ReadFlowCSV(bytes.NewReader([]byte(fcsv)))
	if !errors.Is(err, ErrIPv6Unsupported) {
		t.Fatalf("flow csv err = %v, want ErrIPv6Unsupported", err)
	}
	if _, err := ParseIPv4("::1"); !errors.Is(err, ErrIPv6Unsupported) {
		t.Fatalf("ParseIPv4(::1) err = %v, want ErrIPv6Unsupported", err)
	}
	if _, err := ParseIPv4("garbage"); errors.Is(err, ErrIPv6Unsupported) {
		t.Fatal("garbage must not be classified as IPv6")
	}
}

func TestKeyRoundTripAndHash(t *testing.T) {
	ft4 := FiveTuple{
		SrcIP: IPv4FromBytes(10, 0, 0, 1), DstIP: IPv4FromBytes(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80, Proto: TCP,
	}
	if got := ft4.Key().Tuple(); got != ft4 {
		t.Fatalf("Key4 round trip: %v != %v", got, ft4)
	}
	rev4 := FiveTuple{SrcIP: ft4.DstIP, DstIP: ft4.SrcIP, SrcPort: ft4.DstPort, DstPort: ft4.SrcPort, Proto: TCP}
	if ft4.Key().Hash() == rev4.Key().Hash() {
		t.Fatal("directional keys should hash differently")
	}

	src6 := IPv6(netip.MustParseAddr("2001:db8::1").As16())
	dst6 := IPv6(netip.MustParseAddr("2001:db8::2").As16())
	ft6 := FiveTuple6{SrcIP: src6, DstIP: dst6, SrcPort: 6000, DstPort: 443, Proto: TCP}
	if got := ft6.Key().Tuple(); got != ft6 {
		t.Fatalf("Key6 round trip: %v != %v", got, ft6)
	}
}

func TestPCAPReaderLyingCaplen(t *testing.T) {
	// A record header claiming more stored bytes than the bound must
	// fail without attempting the allocation.
	b := readFixture(t, "v4_raw_be_micro.pcap")
	bad := append([]byte{}, b[:24]...)
	rec := make([]byte, 16)
	copy(rec, b[24:40])
	rec[8], rec[9], rec[10], rec[11] = 0xff, 0xff, 0xff, 0xff // caplen, BE
	bad = append(bad, rec...)
	pr, err := NewPCAPReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Next(); err == nil {
		t.Fatal("lying caplen must fail")
	}
}
