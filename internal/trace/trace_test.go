package trace

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func ft(srcIP, dstIP IPv4, sp, dp uint16, proto Protocol) FiveTuple {
	return FiveTuple{SrcIP: srcIP, DstIP: dstIP, SrcPort: sp, DstPort: dp, Proto: proto}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4FromBytes(10, 1, 2, 3)
	if ip.String() != "10.1.2.3" {
		t.Fatalf("String = %q", ip.String())
	}
	parsed, err := ParseIPv4("10.1.2.3")
	if err != nil {
		t.Fatal(err)
	}
	if parsed != ip {
		t.Fatalf("ParseIPv4 = %v, want %v", parsed, ip)
	}
	if _, err := ParseIPv4("::1"); err == nil {
		t.Fatal("IPv6 must be rejected")
	}
	if _, err := ParseIPv4("not-an-ip"); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestIPv4Classification(t *testing.T) {
	if !IPv4FromBytes(224, 0, 0, 1).IsMulticast() {
		t.Fatal("224.0.0.1 is multicast")
	}
	if !IPv4FromBytes(239, 255, 255, 255).IsMulticast() {
		t.Fatal("239.255.255.255 is multicast")
	}
	if IPv4FromBytes(223, 1, 1, 1).IsMulticast() || IPv4FromBytes(240, 0, 0, 1).IsMulticast() {
		t.Fatal("223/240 prefixes are not multicast")
	}
	if !IPv4FromBytes(255, 1, 2, 3).IsBroadcastPrefix() {
		t.Fatal("255.x is broadcast prefix")
	}
	if !IPv4FromBytes(0, 1, 2, 3).IsZeroPrefix() {
		t.Fatal("0.x is zero prefix")
	}
}

func TestFastHashDistinguishes(t *testing.T) {
	a := ft(1, 2, 80, 443, TCP)
	b := ft(1, 2, 80, 443, UDP)
	if a.FastHash() == b.FastHash() {
		t.Fatal("protocol must affect the hash")
	}
}

func TestPortProtocol(t *testing.T) {
	if PortProtocol(80) != TCP || PortProtocol(443) != TCP {
		t.Fatal("HTTP/HTTPS are TCP")
	}
	if PortProtocol(123) != UDP {
		t.Fatal("NTP is UDP")
	}
	if PortProtocol(53) != 0 {
		t.Fatal("DNS runs on both")
	}
}

func TestLabelString(t *testing.T) {
	if Benign.String() != "benign" || DoS.String() != "dos" {
		t.Fatal("label names wrong")
	}
	if int(NumLabels) != len(labelNames) {
		t.Fatal("labelNames table out of sync with labels")
	}
}

func makePacketTrace() *PacketTrace {
	tpl1 := ft(IPv4FromBytes(10, 0, 0, 1), IPv4FromBytes(10, 0, 0, 2), 1234, 80, TCP)
	tpl2 := ft(IPv4FromBytes(10, 0, 0, 3), IPv4FromBytes(10, 0, 0, 4), 5353, 53, UDP)
	return &PacketTrace{Packets: []Packet{
		{Time: 30, Tuple: tpl1, Size: 100, TTL: 64},
		{Time: 10, Tuple: tpl1, Size: 60, TTL: 64},
		{Time: 20, Tuple: tpl2, Size: 80, TTL: 128},
		{Time: 90, Tuple: tpl1, Size: 1500, TTL: 64},
	}}
}

func TestSplitFlowsGroupsAndOrders(t *testing.T) {
	flows := SplitFlows(makePacketTrace())
	if len(flows) != 2 {
		t.Fatalf("got %d flows, want 2", len(flows))
	}
	// First flow (earliest start, t=10) is the TCP flow with 3 packets.
	if flows[0].Tuple.Proto != TCP || len(flows[0].Packets) != 3 {
		t.Fatalf("flow[0] = %v with %d packets", flows[0].Tuple, len(flows[0].Packets))
	}
	for i := 1; i < len(flows[0].Packets); i++ {
		if flows[0].Packets[i].Time < flows[0].Packets[i-1].Time {
			t.Fatal("packets within a flow must be time ordered")
		}
	}
	if flows[0].Start() != 10 || flows[0].End() != 90 {
		t.Fatalf("flow[0] span = [%d,%d]", flows[0].Start(), flows[0].End())
	}
}

func TestAssemblePacketsRoundTrip(t *testing.T) {
	orig := makePacketTrace()
	orig.SortByTime()
	flows := SplitFlows(orig)
	back := AssemblePackets(flows)
	if len(back.Packets) != len(orig.Packets) {
		t.Fatalf("lost packets: %d vs %d", len(back.Packets), len(orig.Packets))
	}
	for i := range back.Packets {
		if back.Packets[i] != orig.Packets[i] {
			t.Fatalf("packet %d differs after round trip", i)
		}
	}
}

func TestRecordsPerTuple(t *testing.T) {
	tpl := ft(1, 2, 3, 4, TCP)
	other := ft(5, 6, 7, 8, UDP)
	tr := &FlowTrace{Records: []FlowRecord{
		{Tuple: tpl, Start: 0}, {Tuple: tpl, Start: 10}, {Tuple: tpl, Start: 20},
		{Tuple: other, Start: 5},
	}}
	counts := RecordsPerTuple(tr)
	if len(counts) != 2 || counts[0] != 1 || counts[1] != 3 {
		t.Fatalf("RecordsPerTuple = %v", counts)
	}
}

func TestChunkPacketFlowsTags(t *testing.T) {
	tpl := ft(1, 2, 3, 4, TCP)
	other := ft(5, 6, 7, 8, UDP)
	flows := []*PacketFlow{
		{Tuple: tpl, Packets: []Packet{{Time: 0, Tuple: tpl}, {Time: 95, Tuple: tpl}}}, // spans chunk 0 and 9
		{Tuple: other, Packets: []Packet{{Time: 50, Tuple: other}}},                    // chunk 5 only
	}
	chunks := ChunkPacketFlows(flows, 10)
	if len(chunks) != 10 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	// Spanning flow appears in chunks 0 and 9.
	if len(chunks[0]) != 1 || len(chunks[9]) != 1 {
		t.Fatalf("spanning flow misplaced: %d in c0, %d in c9", len(chunks[0]), len(chunks[9]))
	}
	first := chunks[0][0]
	last := chunks[9][0]
	if !first.Tags.StartsHere {
		t.Fatal("first chunk must have StartsHere")
	}
	if last.Tags.StartsHere {
		t.Fatal("later chunk must not have StartsHere")
	}
	if !first.Tags.Presence[0] || !first.Tags.Presence[9] || first.Tags.Presence[5] {
		t.Fatalf("presence vector wrong: %v", first.Tags.Presence)
	}
	// Single-chunk flow.
	if len(chunks[5]) != 1 || !chunks[5][0].Tags.StartsHere {
		t.Fatal("single-chunk flow wrong")
	}
	// No packets lost.
	var total int
	for _, c := range chunks {
		for _, f := range c {
			total += len(f.Flow.Packets)
		}
	}
	if total != 3 {
		t.Fatalf("chunking lost packets: %d", total)
	}
}

func TestChunkFlowSeries(t *testing.T) {
	tpl := ft(1, 2, 3, 4, TCP)
	series := []*FlowSeries{{Tuple: tpl, Records: []FlowRecord{
		{Tuple: tpl, Start: 0, Duration: 5},
		{Tuple: tpl, Start: 99, Duration: 5},
	}}}
	chunks := ChunkFlowSeries(series, 4)
	var total int
	for _, c := range chunks {
		for _, f := range c {
			total += len(f.Series.Records)
		}
	}
	if total != 2 {
		t.Fatalf("chunking lost records: %d", total)
	}
	if len(chunks[0]) != 1 || !chunks[0][0].Tags.StartsHere {
		t.Fatal("first chunk tags wrong")
	}
	if len(chunks[3]) != 1 || chunks[3][0].Tags.StartsHere {
		t.Fatal("last chunk tags wrong")
	}
}

func TestChecksum(t *testing.T) {
	h := IPv4Header{
		TotalLength: 100, ID: 42, TTL: 64, Protocol: TCP,
		SrcIP: IPv4FromBytes(192, 168, 0, 1), DstIP: IPv4FromBytes(10, 0, 0, 1),
	}
	b := h.Marshal()
	if len(b) != 20 {
		t.Fatalf("header length %d", len(b))
	}
	if !VerifyChecksum(b) {
		t.Fatal("marshaled header must have a valid checksum")
	}
	b[8]++ // corrupt TTL
	if VerifyChecksum(b) {
		t.Fatal("corrupted header must fail checksum")
	}
}

// Property: checksum verification holds for arbitrary headers.
func TestChecksumProperty(t *testing.T) {
	f := func(totalLen, id uint16, ttl uint8, src, dst uint32) bool {
		h := IPv4Header{TotalLength: totalLen, ID: id, TTL: ttl, Protocol: UDP,
			SrcIP: IPv4(src), DstIP: IPv4(dst)}
		return VerifyChecksum(h.Marshal())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinPacketSize(t *testing.T) {
	if MinPacketSize(TCP) != 40 || MinPacketSize(UDP) != 28 || MinPacketSize(ICMP) != 20 {
		t.Fatal("minimum packet sizes wrong")
	}
}

func TestPacketCSVRoundTrip(t *testing.T) {
	orig := makePacketTrace()
	var buf bytes.Buffer
	if err := WritePacketCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPacketCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Packets) != len(orig.Packets) {
		t.Fatalf("row count %d vs %d", len(back.Packets), len(orig.Packets))
	}
	for i := range back.Packets {
		if back.Packets[i] != orig.Packets[i] {
			t.Fatalf("packet %d: %+v vs %+v", i, back.Packets[i], orig.Packets[i])
		}
	}
}

func TestFlowCSVRoundTrip(t *testing.T) {
	tpl := ft(IPv4FromBytes(10, 0, 0, 1), IPv4FromBytes(10, 0, 0, 2), 1234, 80, TCP)
	orig := &FlowTrace{Records: []FlowRecord{
		{Tuple: tpl, Start: 5, Duration: 100, Packets: 10, Bytes: 4000, Label: DoS},
		{Tuple: ft(tpl.DstIP, tpl.SrcIP, tpl.DstPort, tpl.SrcPort, TCP), Start: 6, Duration: 90, Packets: 8, Bytes: 3000, Label: Benign},
	}}
	var buf bytes.Buffer
	if err := WriteFlowCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFlowCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 2 {
		t.Fatalf("row count %d", len(back.Records))
	}
	for i := range back.Records {
		if back.Records[i] != orig.Records[i] {
			t.Fatalf("record %d: %+v vs %+v", i, back.Records[i], orig.Records[i])
		}
	}
}

func TestFlowTraceDuration(t *testing.T) {
	tpl := ft(1, 2, 3, 4, TCP)
	tr := &FlowTrace{Records: []FlowRecord{
		{Tuple: tpl, Start: 10, Duration: 5},
		{Tuple: tpl, Start: 0, Duration: 2},
	}}
	if d := tr.Duration(); d != 15 {
		t.Fatalf("Duration = %d, want 15", d)
	}
}

// TestSortByStartIsStable: records with equal Start keep their input
// order, which is what makes a merged chunk trace's order reproducible.
func TestSortByStartIsStable(t *testing.T) {
	tr := &FlowTrace{}
	for i := 0; i < 40; i++ {
		// Starts cycle through 3, 2, 1, 0; Packets records input order.
		tr.Records = append(tr.Records, FlowRecord{Start: int64(3 - i%4), Packets: int64(i)})
	}
	tr.SortByStart()
	for i := 1; i < len(tr.Records); i++ {
		a, b := tr.Records[i-1], tr.Records[i]
		if a.Start > b.Start || a.Start == b.Start && a.Packets > b.Packets {
			t.Fatalf("records %d and %d out of order: %+v then %+v", i-1, i, a, b)
		}
	}
}

// sortLengths are the trace lengths the keyed sorts are checked at: empty,
// single, a pair, one ragged size and one large enough for pdqsort's
// pattern breaking.
var sortLengths = []int{0, 1, 2, 31, 5000}

// TestSortByStartMatchesStable checks the keyed sort against a stable
// sort of the records themselves, on start times drawn from 8 values so
// most records tie; each record's other fields are distinct.
func TestSortByStartMatchesStable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range sortLengths {
		tr := &FlowTrace{}
		for i := 0; i < n; i++ {
			tr.Records = append(tr.Records, FlowRecord{
				Tuple:   ft(IPv4(r.Uint32()), IPv4(r.Uint32()), uint16(r.Intn(65536)), uint16(r.Intn(65536)), TCP),
				Start:   int64(r.Intn(8)) - 3,
				Packets: int64(i),
				Label:   Label(r.Intn(int(NumLabels))),
			})
		}
		want := slices.Clone(tr.Records)
		slices.SortStableFunc(want, func(a, b FlowRecord) int { return cmp.Compare(a.Start, b.Start) })
		tr.SortByStart()
		if !reflect.DeepEqual(tr.Records, want) {
			t.Fatalf("n=%d: SortByStart differs from the stable sort", n)
		}
	}
}

// TestSortByTimeMatchesStable is TestSortByStartMatchesStable for packets.
func TestSortByTimeMatchesStable(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range sortLengths {
		tr := &PacketTrace{}
		for i := 0; i < n; i++ {
			tr.Packets = append(tr.Packets, Packet{
				Time:  int64(r.Intn(8)) << 40,
				Tuple: ft(IPv4(r.Uint32()), IPv4(r.Uint32()), uint16(r.Intn(65536)), uint16(r.Intn(65536)), UDP),
				Size:  i,
				TTL:   uint8(r.Intn(256)),
			})
		}
		want := slices.Clone(tr.Packets)
		slices.SortStableFunc(want, func(a, b Packet) int { return cmp.Compare(a.Time, b.Time) })
		tr.SortByTime()
		if !reflect.DeepEqual(tr.Packets, want) {
			t.Fatalf("n=%d: SortByTime differs from the stable sort", n)
		}
	}
}

// TestFlowSeriesAssembly splits a flow trace by five-tuple and
// reassembles it by concatenating the series and sorting by start time.
func TestFlowSeriesAssembly(t *testing.T) {
	tpl := ft(1, 2, 3, 4, TCP)
	other := ft(5, 6, 7, 8, UDP)
	tr := &FlowTrace{Records: []FlowRecord{
		{Tuple: tpl, Start: 0, Duration: 10},
		{Tuple: other, Start: 50, Duration: 10},
		{Tuple: tpl, Start: 99, Duration: 10},
	}}
	series := SplitFlowSeries(tr)
	back := &FlowTrace{}
	for i := len(series) - 1; i >= 0; i-- {
		back.Records = append(back.Records, series[i].Records...)
	}
	back.SortByStart()
	if !reflect.DeepEqual(back.Records, tr.Records) {
		t.Fatalf("series assembled back to %+v, want %+v", back.Records, tr.Records)
	}
	if series[0].End() != 109 {
		// tpl series spans [0,109]; ordering puts it first.
		t.Fatalf("series End() = %d", series[0].End())
	}
}

func TestFlowSizeDistribution(t *testing.T) {
	tpl := ft(1, 2, 3, 4, TCP)
	other := ft(5, 6, 7, 8, UDP)
	flows := []*PacketFlow{
		{Tuple: tpl, Packets: []Packet{{}, {}, {}}},
		{Tuple: other, Packets: []Packet{{}}},
	}
	sizes := FlowSizeDistribution(flows)
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 1 {
		t.Fatalf("FlowSizeDistribution = %v", sizes)
	}
}

func TestStringers(t *testing.T) {
	tpl := ft(IPv4FromBytes(10, 0, 0, 1), IPv4FromBytes(10, 0, 0, 2), 1234, 80, TCP)
	if got := tpl.String(); got != "10.0.0.1:1234 > 10.0.0.2:80/TCP" {
		t.Fatalf("FiveTuple.String = %q", got)
	}
	if ICMP.String() != "ICMP" || Protocol(99).String() != "PROTO(99)" {
		t.Fatal("Protocol.String wrong")
	}
	if KindPCAP.String() != "pcap" || KindNetFlow.String() != "netflow" {
		t.Fatal("Kind.String wrong")
	}
	if Label(200).String() != "label(200)" {
		t.Fatal("out-of-range label string wrong")
	}
}

func TestSplitFlowSeriesOrdering(t *testing.T) {
	a := ft(1, 2, 3, 4, TCP)
	b := ft(5, 6, 7, 8, UDP)
	tr := &FlowTrace{Records: []FlowRecord{
		{Tuple: b, Start: 50},
		{Tuple: a, Start: 30},
		{Tuple: a, Start: 10},
	}}
	series := SplitFlowSeries(tr)
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	if series[0].Tuple != a {
		t.Fatal("series must be ordered by first start")
	}
	if series[0].Records[0].Start != 10 {
		t.Fatal("records within a series must be start ordered")
	}
}
