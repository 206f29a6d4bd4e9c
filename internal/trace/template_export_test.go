package trace

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// labeledFlowTrace builds a flow trace whose records cycle through several
// scenario labels, with millisecond-aligned timestamps so the ms-granular
// export formats round-trip exactly.
func labeledFlowTrace(n int) *FlowTrace {
	out := &FlowTrace{}
	labels := []Label{Benign, DoS, PortScan, BruteForce}
	for i := 0; i < n; i++ {
		out.Records = append(out.Records, FlowRecord{
			Tuple: FiveTuple{
				SrcIP: IPv4FromBytes(10, 0, byte(i), 1), DstIP: IPv4FromBytes(10, 0, byte(i), 2),
				SrcPort: uint16(40000 + i), DstPort: 443, Proto: TCP,
			},
			Start:    int64(i) * 250_000,
			Duration: 750_000,
			Packets:  int64(i + 1),
			Bytes:    int64((i + 1) * 90),
			Label:    labels[i%len(labels)],
		})
	}
	return out
}

func TestNetFlowV9RoundTrip(t *testing.T) {
	orig := labeledFlowTrace(4)
	var buf bytes.Buffer
	if err := WriteNetFlowV9(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNetFlowV9(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("v9 round trip mismatch:\n got %+v\nwant %+v", got.Records, orig.Records)
	}
	// Write→read→write must be byte-identical (the download acceptance
	// criterion).
	var again bytes.Buffer
	if err := WriteNetFlowV9(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("v9 re-encode is not byte-identical")
	}
}

func TestNetFlowV9MultiPacket(t *testing.T) {
	// 65 records span three export packets; the template flowset must
	// appear only in the first.
	orig := labeledFlowTrace(65)
	var buf bytes.Buffer
	if err := WriteNetFlowV9(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNetFlowV9(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 65 {
		t.Fatalf("got %d records, want 65", len(got.Records))
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("v9 multi-packet round trip mismatch")
	}
}

func TestIPFIXRoundTrip(t *testing.T) {
	orig := labeledFlowTrace(4)
	var buf bytes.Buffer
	if err := WriteIPFIX(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIPFIX(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("ipfix round trip mismatch:\n got %+v\nwant %+v", got.Records, orig.Records)
	}
	var again bytes.Buffer
	if err := WriteIPFIX(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("ipfix re-encode is not byte-identical")
	}
}

func TestIPFIXMultiMessage(t *testing.T) {
	orig := labeledFlowTrace(65)
	var buf bytes.Buffer
	if err := WriteIPFIX(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIPFIX(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("ipfix multi-message round trip mismatch")
	}
}

// TestUptimeOverflowBoundary pins the wrap boundary: a flow ending exactly
// at the 32-bit millisecond limit encodes, one millisecond past it fails
// with ErrUptimeOverflow instead of wrapping into Last < First.
func TestUptimeOverflowBoundary(t *testing.T) {
	const maxMS = int64(0xffffffff)
	atLimit := &FlowTrace{Records: []FlowRecord{{
		Tuple:    FiveTuple{SrcIP: IPv4FromBytes(10, 0, 0, 1), DstIP: IPv4FromBytes(10, 0, 0, 2), Proto: TCP},
		Start:    0,
		Duration: maxMS * 1000,
		Packets:  1, Bytes: 40,
	}}}
	past := &FlowTrace{Records: []FlowRecord{{
		Tuple:    atLimit.Records[0].Tuple,
		Start:    0,
		Duration: (maxMS + 1) * 1000,
		Packets:  1, Bytes: 40,
	}}}

	writers := map[string]func(*bytes.Buffer, *FlowTrace) error{
		"netflow5": func(b *bytes.Buffer, tr *FlowTrace) error { return WriteNetFlowV5(b, tr) },
		"netflow9": func(b *bytes.Buffer, tr *FlowTrace) error { return WriteNetFlowV9(b, tr) },
	}
	for name, write := range writers {
		var buf bytes.Buffer
		if err := write(&buf, atLimit); err != nil {
			t.Fatalf("%s: flow at the limit should encode: %v", name, err)
		}
		buf.Reset()
		err := write(&buf, past)
		if !errors.Is(err, ErrUptimeOverflow) {
			t.Fatalf("%s: want ErrUptimeOverflow past the wrap boundary, got %v", name, err)
		}
	}

	// IPFIX carries 64-bit absolute milliseconds and must accept the same
	// flow the uptime-relative formats reject.
	var buf bytes.Buffer
	if err := WriteIPFIX(&buf, past); err != nil {
		t.Fatalf("ipfix should encode >49.7-day flows: %v", err)
	}
	got, err := ReadIPFIX(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(past, got) {
		t.Fatal("ipfix long-flow round trip mismatch")
	}
}

func TestParseLabel(t *testing.T) {
	for l := Benign; l < NumLabels; l++ {
		got, ok := ParseLabel(l.String())
		if !ok || got != l {
			t.Fatalf("ParseLabel(%q) = %v, %v", l.String(), got, ok)
		}
	}
	if _, ok := ParseLabel("warp-core-breach"); ok {
		t.Fatal("ParseLabel accepted an unknown name")
	}
}

func FuzzReadNetFlowV9(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteNetFlowV9(&buf, labeledFlowTrace(3)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 9, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadNetFlowV9(bytes.NewReader(data))
		if err == nil && tr == nil {
			t.Fatal("nil trace without error")
		}
	})
}

func FuzzReadIPFIX(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteIPFIX(&buf, labeledFlowTrace(3)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 10, 0, 16})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadIPFIX(bytes.NewReader(data))
		if err == nil && tr == nil {
			t.Fatal("nil trace without error")
		}
	})
}
