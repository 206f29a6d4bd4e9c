package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// streamFlowTrace is sampleFlowTrace with label and port variety, so the
// streamed encodings exercise every column.
func streamFlowTrace(n int) *FlowTrace {
	t := &FlowTrace{}
	for i := 0; i < n; i++ {
		t.Records = append(t.Records, FlowRecord{
			Tuple: FiveTuple{
				SrcIP:   IPv4FromBytes(10, 0, byte(i%3), byte(i%7)),
				DstIP:   IPv4FromBytes(192, 168, 1, byte(i%5)),
				SrcPort: uint16(1024 + i),
				DstPort: 443,
				Proto:   TCP,
			},
			Start:    int64(i) * 1000,
			Duration: int64(i%11) * 500,
			Packets:  int64(1 + i%9),
			Bytes:    int64(40 * (1 + i%9)),
			Label:    Label(i % int(NumLabels)),
		})
	}
	return t
}

func streamPacketTrace(n int) *PacketTrace {
	t := &PacketTrace{}
	for i := 0; i < n; i++ {
		t.Packets = append(t.Packets, Packet{
			Time: int64(i) * 700,
			Tuple: FiveTuple{
				SrcIP:   IPv4FromBytes(10, 1, 0, byte(i%4)),
				DstIP:   IPv4FromBytes(172, 16, 0, byte(i%6)),
				SrcPort: uint16(2048 + i),
				DstPort: 80,
				Proto:   TCP,
			},
			Size:  40 + i%1400,
			TTL:   64,
			Flags: uint8(i % 2),
		})
	}
	return t
}

// The CSV readers must reject input whose first row is not the exact
// header (previously the first data row of a headerless file was
// silently dropped) and input that repeats the header mid-file
// (previously a confusing ParseInt error), both with ErrCSVHeader.
func TestCSVHeaderValidation(t *testing.T) {
	flowHdr := "start_us,duration_us,src_ip,dst_ip,src_port,dst_port,proto,packets,bytes,label\n"
	flowRow := "0,10,10.0.0.1,10.0.0.2,1,2,6,3,120,benign\n"
	pktHdr := "time_us,src_ip,dst_ip,src_port,dst_port,proto,size,ttl,flags\n"
	pktRow := "0,10.0.0.1,10.0.0.2,1,2,6,40,64,0\n"

	cases := []struct {
		name string
		in   string
		flow bool
	}{
		{"flow headerless", flowRow, true},
		{"flow duplicate header", flowHdr + flowRow + flowHdr, true},
		{"flow garbage header", "a,b,c,d,e,f,g,h,i,j\n" + flowRow, true},
		{"packet headerless", pktRow, false},
		{"packet duplicate header", pktHdr + pktHdr + pktRow, false},
		{"packet garbage header", "x,y,z,a,b,c,d,e,f\n" + pktRow, false},
	}
	for _, tc := range cases {
		var err error
		if tc.flow {
			_, err = ReadFlowCSV(strings.NewReader(tc.in))
		} else {
			_, err = ReadPacketCSV(strings.NewReader(tc.in))
		}
		if !errors.Is(err, ErrCSVHeader) {
			t.Errorf("%s: got %v, want ErrCSVHeader", tc.name, err)
		}
	}

	// Valid input still round-trips.
	if ft, err := ReadFlowCSV(strings.NewReader(flowHdr + flowRow)); err != nil || len(ft.Records) != 1 {
		t.Fatalf("valid flow csv: %v, %d records", err, len(ft.Records))
	}
	if pt, err := ReadPacketCSV(strings.NewReader(pktHdr + pktRow)); err != nil || len(pt.Packets) != 1 {
		t.Fatalf("valid packet csv: %v, %d packets", err, len(pt.Packets))
	}
}

// Scan callbacks see every row in order and can abort the scan.
func TestScanCSVCallback(t *testing.T) {
	ft := streamFlowTrace(67)
	var buf bytes.Buffer
	if err := WriteFlowCSV(&buf, ft); err != nil {
		t.Fatal(err)
	}
	var got []FlowRecord
	if err := ScanFlowCSV(bytes.NewReader(buf.Bytes()), func(fr FlowRecord) error {
		got = append(got, fr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ft.Records) {
		t.Fatalf("scanned %d records, want %d", len(got), len(ft.Records))
	}
	for i := range got {
		if got[i] != ft.Records[i] {
			t.Fatalf("record %d mismatch: %+v != %+v", i, got[i], ft.Records[i])
		}
	}
	sentinel := errors.New("stop")
	n := 0
	err := ScanFlowCSV(bytes.NewReader(buf.Bytes()), func(FlowRecord) error {
		n++
		if n == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || n != 5 {
		t.Fatalf("abort: err=%v after %d rows", err, n)
	}
}

// TestStreamingEncodersMatchBatch runs every row of the format table:
// records fed one at a time to the row's streaming writer (with the
// earliest start as base) must equal the buffered Encode of the whole
// trace, and the row's reader must read the bytes back into a trace that
// re-encodes to the same bytes.
func TestStreamingEncodersMatchBatch(t *testing.T) {
	// Shifted and reversed so the SysUptime base (the earliest start,
	// 7s) is neither zero nor the first record; 95 and 97 rows leave a
	// trailing partial export packet.
	const base = 7_000_000
	ft := streamFlowTrace(95)
	for i, j := 0, len(ft.Records)-1; i < j; i, j = i+1, j-1 {
		ft.Records[i], ft.Records[j] = ft.Records[j], ft.Records[i]
	}
	for i := range ft.Records {
		ft.Records[i].Start += base
	}
	pt := streamPacketTrace(97)

	for name, f := range formats {
		t.Run(name, func(t *testing.T) {
			if f.Name != name {
				t.Fatalf("row %q is named %q", name, f.Name)
			}
			if !f.carries(KindNetFlow) && !f.carries(KindPCAP) {
				t.Fatal("row carries no trace kind")
			}
			if f.flow != nil {
				checkCodec(t, f, f.flow, ft, ft.Records, base, func(r *FlowTrace) int { return len(r.Records) })
			}
			if f.packet != nil {
				checkCodec(t, f, f.packet, pt, pt.Packets, 0, func(r *PacketTrace) int { return len(r.Packets) })
			}
		})
	}
}

func checkCodec[R, T any](t *testing.T, f Format, c *codec[R, T], src Source, recs []R, base int64, rows func(*T) int) {
	t.Helper()
	var buffered, streamed bytes.Buffer
	if err := f.Encode(&buffered, src); err != nil {
		t.Fatal(err)
	}
	rw := c.newWriter(&streamed, base)
	for _, r := range recs {
		if err := rw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buffered.Bytes(), streamed.Bytes()) {
		t.Fatalf("%s %s: streamed bytes differ from buffered Encode", f.Name, src.Kind())
	}

	back, err := c.read(bytes.NewReader(buffered.Bytes()))
	if err != nil {
		t.Fatalf("%s %s: read back: %v", f.Name, src.Kind(), err)
	}
	if rows(back) != len(recs) {
		t.Fatalf("%s %s: read back %d rows, wrote %d", f.Name, src.Kind(), rows(back), len(recs))
	}
	var again bytes.Buffer
	if err := f.Encode(&again, any(back).(Source)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buffered.Bytes()) {
		t.Fatalf("%s %s: read-back trace does not re-encode to the same bytes", f.Name, src.Kind())
	}
}

// TestLookupFormat checks the table's name/kind gate and that the
// buffered Write* wrappers are the table's encodings.
func TestLookupFormat(t *testing.T) {
	for _, c := range []struct {
		name string
		kind Kind
		ok   bool
	}{
		{"csv", KindNetFlow, true}, {"csv", KindPCAP, true},
		{"pcap", KindPCAP, true}, {"pcap", KindNetFlow, false},
		{"netflow5", KindNetFlow, true}, {"netflow9", KindPCAP, false},
		{"ipfix", KindNetFlow, true}, {"", KindNetFlow, false}, {"xml", KindPCAP, false},
	} {
		f, err := LookupFormat(c.name, c.kind)
		if c.ok != (err == nil) {
			t.Fatalf("LookupFormat(%q, %s): err %v", c.name, c.kind, err)
		}
		if !c.ok && !errors.Is(err, ErrFormat) {
			t.Fatalf("LookupFormat(%q, %s): %v is not ErrFormat", c.name, c.kind, err)
		}
		if c.ok && (f.Name != c.name || f.ContentType == "" || f.Ext == "") {
			t.Fatalf("LookupFormat(%q): incomplete row %+v", c.name, f)
		}
	}
	f, _ := LookupFormat("netflow5", KindNetFlow)
	if err := f.Encode(&bytes.Buffer{}, streamPacketTrace(3)); !errors.Is(err, ErrFormat) {
		t.Fatalf("encoding packets as netflow5: %v", err)
	}
}
