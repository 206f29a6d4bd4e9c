package ingest

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// IngestBytes ingests an in-memory capture (fuzz targets, tests).
func (a *Assembler) IngestBytes(b []byte) error {
	return a.IngestReader(bytes.NewReader(b))
}

// samplePackets is a small canonical IPv4 trace, time-sorted.
func samplePackets() *trace.PacketTrace {
	tpl := func(h byte, sport uint16, proto trace.Protocol) trace.FiveTuple {
		return trace.FiveTuple{
			SrcIP: trace.IPv4FromBytes(10, 0, 0, h), DstIP: trace.IPv4FromBytes(10, 0, 1, h),
			SrcPort: sport, DstPort: 80, Proto: proto,
		}
	}
	return &trace.PacketTrace{Packets: []trace.Packet{
		{Time: 100, Tuple: tpl(1, 1111, trace.TCP), Size: 60, TTL: 64, Flags: 2},
		{Time: 250, Tuple: tpl(2, 2222, trace.UDP), Size: 120, TTL: 63},
		{Time: 400, Tuple: tpl(1, 1111, trace.TCP), Size: 52, TTL: 64, Flags: 2},
		{Time: 900, Tuple: tpl(3, 3333, trace.UDP), Size: 400, TTL: 8},
		{Time: 1300, Tuple: tpl(1, 1111, trace.TCP), Size: 60, TTL: 64, Flags: 2},
	}}
}

func fixtureBytes(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "trace", "testdata", name))
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return b
}

// TestIngestPCAPRoundTrip is the pipeline contract: a capture written
// by our own writer, ingested and flushed, reassembles into the same
// packet trace — and its flow records sum up consistently.
func TestIngestPCAPRoundTrip(t *testing.T) {
	orig := samplePackets()
	var buf bytes.Buffer
	if err := trace.WritePCAP(&buf, orig); err != nil {
		t.Fatal(err)
	}
	a := New(Config{})
	if err := a.IngestBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	a.Flush()

	back := a.PacketTrace()
	if len(back.Packets) != len(orig.Packets) {
		t.Fatalf("round trip: %d packets, want %d", len(back.Packets), len(orig.Packets))
	}
	for i := range orig.Packets {
		if back.Packets[i] != orig.Packets[i] {
			t.Fatalf("packet %d: got %+v, want %+v", i, back.Packets[i], orig.Packets[i])
		}
	}

	ft := a.FlowTrace()
	if len(ft.Records) != 3 {
		t.Fatalf("flow trace: %d records, want 3", len(ft.Records))
	}
	var pkts, bts int64
	for _, r := range ft.Records {
		pkts += r.Packets
		bts += r.Bytes
	}
	if pkts != 5 || bts != 60+120+52+400+60 {
		t.Fatalf("flow totals: %d packets / %d bytes", pkts, bts)
	}
	// The three-packet TCP flow spans the trace.
	r := ft.Records[0]
	if r.Tuple.SrcPort != 1111 || r.Start != 100 || r.Duration != 1200 || r.Packets != 3 {
		t.Fatalf("tcp record = %+v", r)
	}
}

// TestIngestMixedEthernet pins the mixed-family counters and teardown
// behavior against the checked-in Ethernet fixture: two IPv4 frames
// (one FIN-bearing TCP), one IPv6 TCP SYN, one ARP.
func TestIngestMixedEthernet(t *testing.T) {
	a := New(Config{})
	if err := a.IngestBytes(fixtureBytes(t, "mixed_eth_le_micro.pcap")); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.PacketsParsed != 3 || st.PacketsIPv4 != 2 || st.PacketsIPv6 != 1 ||
		st.PacketsNonIP != 1 || st.ParseErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The FIN-bearing TCP flow was torn down immediately; the other two
	// flows are still live.
	if st.EvictedTeardown != 1 || st.FlowsLive != 2 {
		t.Fatalf("teardown=%d live=%d, want 1/2", st.EvictedTeardown, st.FlowsLive)
	}
	a.Flush()
	flows := a.Flows()
	if len(flows) != 3 {
		t.Fatalf("%d flows, want 3", len(flows))
	}
	if flows[0].Reason != EvictTeardown || flows[0].Family != 4 {
		t.Fatalf("first flow = %+v", flows[0])
	}
	var v6 *Flow
	for _, f := range flows {
		if f.Family == 6 {
			v6 = f
		}
	}
	if v6 == nil || v6.Tuple6.SrcIP.String() != "2001:db8::1" || v6.PacketCount != 1 {
		t.Fatalf("v6 flow = %+v", v6)
	}
	// Training views are IPv4-only.
	if pt := a.PacketTrace(); len(pt.Packets) != 2 {
		t.Fatalf("packet trace has %d packets, want 2", len(pt.Packets))
	}
	if ft := a.FlowTrace(); len(ft.Records) != 2 {
		t.Fatalf("flow trace has %d records, want 2", len(ft.Records))
	}
}

// TestIngestSkipsBadRecords checks that per-packet damage is counted
// and skipped while the rest of the stream survives.
func TestIngestSkipsBadRecords(t *testing.T) {
	b := fixtureBytes(t, "v4_raw_be_micro.pcap")
	// Corrupt the first packet's IP version nibble (file header 24B +
	// record header 16B = offset 40).
	bad := append([]byte{}, b...)
	bad[40] = 0x00
	a := New(Config{})
	if err := a.IngestBytes(bad); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.ParseErrors != 1 || st.PacketsParsed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestIngestFileCounters pins the file-level accounting.
func TestIngestFileCounters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cap.pcap")
	if err := os.WriteFile(path, fixtureBytes(t, "v4_raw_le_nano.pcap"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := New(Config{})
	if err := a.IngestFile(path); err != nil {
		t.Fatal(err)
	}
	if err := a.IngestFile(filepath.Join(dir, "missing.pcap")); err == nil {
		t.Fatal("missing file must error")
	}
	if err := os.WriteFile(filepath.Join(dir, "garbage.pcap"), []byte("not a pcap"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := a.IngestFile(filepath.Join(dir, "garbage.pcap")); err == nil {
		t.Fatal("garbage file must error")
	}
	st := a.Stats()
	if st.FilesIngested != 1 || st.FileErrors != 2 {
		t.Fatalf("files=%d errors=%d, want 1/2", st.FilesIngested, st.FileErrors)
	}
	if st.PacketsParsed != 2 {
		t.Fatalf("parsed = %d, want 2", st.PacketsParsed)
	}
}
