package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Fuzz targets for the binary and CSV parsers: no input may cause a panic,
// and anything our writers produce must parse back.

func FuzzReadPCAP(f *testing.F) {
	var buf bytes.Buffer
	if err := WritePCAP(&buf, samplePacketTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("\xd4\xc3\xb2\xa1 short"))
	// The checked-in framing-variant fixtures seed the corpus with
	// big-endian, nanosecond, Ethernet/VLAN, and IPv6 shapes.
	for _, name := range []string{"v4_raw_be_micro.pcap", "v4_raw_le_nano.pcap", "mixed_eth_le_micro.pcap"} {
		if b, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadPCAP(bytes.NewReader(data))
		if err == nil && tr == nil {
			t.Fatal("nil trace without error")
		}
		// The tolerant streaming reader must never panic either, and
		// per-record errors must leave the stream consumable.
		pr, err := NewPCAPReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1<<16; i++ {
			if _, err := pr.Next(); err != nil &&
				!errors.Is(err, ErrPacketParse) && !errors.Is(err, ErrNonIP) {
				return
			}
		}
	})
}

func FuzzReadNetFlowV5(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteNetFlowV5(&buf, sampleFlowTrace(3)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 5, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadNetFlowV5(bytes.NewReader(data))
		if err == nil && tr == nil {
			t.Fatal("nil trace without error")
		}
	})
}

func FuzzReadFlowCSV(f *testing.F) {
	var buf bytes.Buffer
	tpl := FiveTuple{SrcIP: IPv4FromBytes(1, 2, 3, 4), DstIP: IPv4FromBytes(5, 6, 7, 8), Proto: TCP}
	if err := WriteFlowCSV(&buf, &FlowTrace{Records: []FlowRecord{
		{Tuple: tpl, Start: 1, Duration: 2, Packets: 3, Bytes: 120, Label: DoS},
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("start_us,duration_us\n1,2")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadFlowCSV(strings.NewReader(data))
		if err == nil && tr == nil {
			t.Fatal("nil trace without error")
		}
	})
}

// referenceCSV is the encoding/csv writer the append-based CSV writer
// replaced: it formats each field on its own (addresses through
// fmt.Sprintf) and lets csv.Writer join and quote them.
func referenceCSV(header []string, rows [][]string) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	_ = cw.Write(header)
	for _, row := range rows {
		_ = cw.Write(row)
	}
	cw.Flush()
	return buf.Bytes()
}

// sprintfIPv4 is the fmt.Sprintf form IPv4.String had before AppendTo.
func sprintfIPv4(ip IPv4) string {
	o := ip.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", o[0], o[1], o[2], o[3])
}

// FuzzWriteFlowCSV checks both CSV layouts' writers byte for byte against
// referenceCSV, on a trace of copies of one fuzzed record long enough to
// cross the writer's buffer, and IPv4.String against sprintfIPv4.
func FuzzWriteFlowCSV(f *testing.F) {
	f.Add(int64(1), int64(2), uint32(0x01020304), uint32(0x05060708), uint16(80), uint16(443), uint8(6), int64(3), int64(120), uint8(DoS), uint8(64), uint8(2))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint32(0), uint32(math.MaxUint32), uint16(0), uint16(65535), uint8(255), int64(math.MinInt64), int64(math.MaxInt64), uint8(200), uint8(0), uint8(255))
	f.Add(int64(math.MaxInt64), int64(0), uint32(math.MaxUint32), uint32(0), uint16(65535), uint16(0), uint8(0), int64(math.MaxInt64), int64(math.MinInt64), uint8(NumLabels), uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, start, dur int64, src, dst uint32, sport, dport uint16, proto uint8, pkts, byts int64, label, ttl, flags uint8) {
		tpl := FiveTuple{SrcIP: IPv4(src), DstIP: IPv4(dst), SrcPort: sport, DstPort: dport, Proto: Protocol(proto)}
		for _, ip := range []IPv4{tpl.SrcIP, tpl.DstIP} {
			if got, want := ip.String(), sprintfIPv4(ip); got != want {
				t.Fatalf("IPv4(%#x).String() = %q, want %q", uint32(ip), got, want)
			}
		}
		const copies = 100
		rec := FlowRecord{Tuple: tpl, Start: start, Duration: dur, Packets: pkts, Bytes: byts, Label: Label(label)}
		flows := &FlowTrace{}
		var flowRows [][]string
		for i := 0; i < copies; i++ {
			flows.Records = append(flows.Records, rec)
			flowRows = append(flowRows, []string{
				strconv.FormatInt(start, 10), strconv.FormatInt(dur, 10),
				sprintfIPv4(tpl.SrcIP), sprintfIPv4(tpl.DstIP),
				strconv.Itoa(int(sport)), strconv.Itoa(int(dport)), strconv.Itoa(int(proto)),
				strconv.FormatInt(pkts, 10), strconv.FormatInt(byts, 10), Label(label).String(),
			})
		}
		var got bytes.Buffer
		if err := WriteFlowCSV(&got, flows); err != nil {
			t.Fatal(err)
		}
		if want := referenceCSV(flowHeader, flowRows); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("flow CSV differs from encoding/csv:\n got %q\nwant %q", got.Bytes()[:min(got.Len(), 400)], want[:min(len(want), 400)])
		}

		pkt := Packet{Time: start, Tuple: tpl, Size: int(byts), TTL: ttl, Flags: flags}
		packets := &PacketTrace{}
		var packetRows [][]string
		for i := 0; i < copies; i++ {
			packets.Packets = append(packets.Packets, pkt)
			packetRows = append(packetRows, []string{
				strconv.FormatInt(start, 10), sprintfIPv4(tpl.SrcIP), sprintfIPv4(tpl.DstIP),
				strconv.Itoa(int(sport)), strconv.Itoa(int(dport)), strconv.Itoa(int(proto)),
				strconv.Itoa(int(byts)), strconv.Itoa(int(ttl)), strconv.Itoa(int(flags)),
			})
		}
		got.Reset()
		if err := WritePacketCSV(&got, packets); err != nil {
			t.Fatal(err)
		}
		if want := referenceCSV(packetHeader, packetRows); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("packet CSV differs from encoding/csv:\n got %q\nwant %q", got.Bytes()[:min(got.Len(), 400)], want[:min(len(want), 400)])
		}
	})
}

func FuzzReadPacketCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := WritePacketCSV(&buf, samplePacketTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("time_us\n")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadPacketCSV(strings.NewReader(data))
		if err == nil && tr == nil {
			t.Fatal("nil trace without error")
		}
	})
}

func FuzzParseIPv4(f *testing.F) {
	f.Add("10.0.0.1")
	f.Add("256.1.1.1")
	f.Add("::1")
	f.Fuzz(func(t *testing.T, s string) {
		ip, err := ParseIPv4(s)
		if err == nil {
			// Anything accepted must round-trip.
			if back, err2 := ParseIPv4(ip.String()); err2 != nil || back != ip {
				t.Fatalf("round trip broke for %q -> %v", s, ip)
			}
		}
	})
}
