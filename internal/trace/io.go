package trace

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrCSVHeader is the typed rejection for trace CSV input whose header
// row is missing, malformed, or duplicated. Before this check the first
// row was skipped unconditionally, so a headerless file silently lost
// its first data row and a doubled header surfaced as a confusing
// ParseInt failure; both now fail fast with errors.Is-matchable cause.
var ErrCSVHeader = errors.New("trace: malformed CSV header row")

// checkHeader validates one CSV row against the expected header layout:
// the first row must match it exactly, and no later row may repeat it.
func checkHeader(row []string, want []string, i int) error {
	match := len(row) == len(want)
	for k := 0; match && k < len(want); k++ {
		match = row[k] == want[k]
	}
	if i == 0 && !match {
		return fmt.Errorf("%w: first row %q does not match expected header %q", ErrCSVHeader, row, want)
	}
	if i > 0 && match {
		return fmt.Errorf("%w: duplicate header at row %d", ErrCSVHeader, i)
	}
	return nil
}

// CSV import/export so generated traces can be shared with downstream
// tools. Column layouts mirror the fields the paper evaluates: the flow
// format matches the 11 NetFlow fields of §6.1 (minus redundant derived
// columns), the packet format the PCAP fields (IP header + timestamp +
// L4 ports).

var packetHeader = []string{"time_us", "src_ip", "dst_ip", "src_port", "dst_port", "proto", "size", "ttl", "flags"}

// csvWriter streams records in a trace CSV layout one row at a time,
// the CSV counterpart of NFV5Writer: the header row is written first, so
// an empty stream is the header alone, and output is byte-identical to
// the whole-trace CSV writers over the same records.
//
// Each row is appended into one reused buffer (strconv.Append*,
// IPv4.AppendTo) and written through a bufio.Writer, so a row allocates
// nothing. The bytes are the ones encoding/csv writes for the same fields
// (FuzzWriteFlowCSV checks them against it): no field of either layout
// ever needs quoting. encoding/csv quotes a field that contains a comma,
// a double quote, CR or LF, starts with a space or tab, or is `\.`; every
// field here is a decimal integer, a dotted-quad address, a lowercase
// label name or "label(N)", and the header names are [a-z_] words.
type csvWriter[R any] struct {
	bw        *bufio.Writer
	row       []byte
	appendRow func([]byte, R) []byte
}

func newCSVWriter[R any](w io.Writer, header []string, appendRow func([]byte, R) []byte) *csvWriter[R] {
	c := &csvWriter[R]{bw: bufio.NewWriter(w), appendRow: appendRow}
	// A failed write sticks in the bufio.Writer and surfaces at Flush.
	_, _ = c.bw.WriteString(strings.Join(header, ",") + "\n")
	return c
}

// Write appends one record's row.
func (c *csvWriter[R]) Write(r R) error {
	c.row = append(c.appendRow(c.row[:0], r), '\n')
	if _, err := c.bw.Write(c.row); err != nil {
		return fmt.Errorf("trace: write csv row: %w", err)
	}
	return nil
}

// Flush drains the buffer; the CSV is complete afterwards.
func (c *csvWriter[R]) Flush() error {
	return c.bw.Flush()
}

// appendInt appends one decimal field and its trailing comma.
func appendInt(b []byte, v int64) []byte {
	return append(strconv.AppendInt(b, v, 10), ',')
}

// appendIP appends one dotted-quad field and its trailing comma.
func appendIP(b []byte, ip IPv4) []byte {
	return append(ip.AppendTo(b), ',')
}

func newPacketCSVWriter(w io.Writer) *csvWriter[Packet] {
	return newCSVWriter(w, packetHeader, func(b []byte, p Packet) []byte {
		b = appendInt(b, p.Time)
		b = appendIP(b, p.Tuple.SrcIP)
		b = appendIP(b, p.Tuple.DstIP)
		b = appendInt(b, int64(p.Tuple.SrcPort))
		b = appendInt(b, int64(p.Tuple.DstPort))
		b = appendInt(b, int64(p.Tuple.Proto))
		b = appendInt(b, int64(p.Size))
		b = appendInt(b, int64(p.TTL))
		return strconv.AppendInt(b, int64(p.Flags), 10)
	})
}

// ReadPacketCSV parses the packet CSV layout produced by WritePacketCSV.
func ReadPacketCSV(r io.Reader) (*PacketTrace, error) {
	out := &PacketTrace{}
	err := ScanPacketCSV(r, func(p Packet) error {
		out.Packets = append(out.Packets, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanPacketCSV parses the packet CSV layout row by row, invoking fn for
// each decoded packet. Rows are decoded one at a time as they stream in,
// so a multi-gigabyte upload never needs a second full copy of the raw
// CSV in memory, and a malformed row fails fast instead of after
// buffering the whole file. A missing, garbled, or duplicated header row
// is rejected with ErrCSVHeader; empty input yields zero rows.
func ScanPacketCSV(r io.Reader, fn func(Packet) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(packetHeader)
	cr.ReuseRecord = true
	for i := 0; ; i++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: read packet csv: %w", err)
		}
		if err := checkHeader(row, packetHeader, i); err != nil {
			return err
		}
		if i == 0 {
			continue // header row
		}
		var p Packet
		if p.Time, err = strconv.ParseInt(row[0], 10, 64); err != nil {
			return fmt.Errorf("trace: packet row %d time: %w", i, err)
		}
		// ParseIPv4 wraps ErrIPv6Unsupported for valid v6 input, so a
		// caller can distinguish "this CSV carries IPv6" (re-ingest via
		// the pcap path) from a malformed row.
		if p.Tuple.SrcIP, err = ParseIPv4(row[1]); err != nil {
			return fmt.Errorf("trace: packet row %d src ip: %w", i, err)
		}
		if p.Tuple.DstIP, err = ParseIPv4(row[2]); err != nil {
			return fmt.Errorf("trace: packet row %d dst ip: %w", i, err)
		}
		sp, err := strconv.ParseUint(row[3], 10, 16)
		if err != nil {
			return fmt.Errorf("trace: packet row %d src port: %w", i, err)
		}
		dp, err := strconv.ParseUint(row[4], 10, 16)
		if err != nil {
			return fmt.Errorf("trace: packet row %d dst port: %w", i, err)
		}
		proto, err := strconv.ParseUint(row[5], 10, 8)
		if err != nil {
			return fmt.Errorf("trace: packet row %d proto: %w", i, err)
		}
		size, err := strconv.Atoi(row[6])
		if err != nil {
			return fmt.Errorf("trace: packet row %d size: %w", i, err)
		}
		if size < 0 {
			return fmt.Errorf("trace: packet row %d has negative size %d", i, size)
		}
		ttl, err := strconv.ParseUint(row[7], 10, 8)
		if err != nil {
			return fmt.Errorf("trace: packet row %d ttl: %w", i, err)
		}
		flags, err := strconv.ParseUint(row[8], 10, 8)
		if err != nil {
			return fmt.Errorf("trace: packet row %d flags: %w", i, err)
		}
		p.Tuple.SrcPort, p.Tuple.DstPort = uint16(sp), uint16(dp)
		p.Tuple.Proto = Protocol(proto)
		p.Size, p.TTL, p.Flags = size, uint8(ttl), uint8(flags)
		if err := fn(p); err != nil {
			return err
		}
	}
}

var flowHeader = []string{"start_us", "duration_us", "src_ip", "dst_ip", "src_port", "dst_port", "proto", "packets", "bytes", "label"}

func newFlowCSVWriter(w io.Writer) *csvWriter[FlowRecord] {
	return newCSVWriter(w, flowHeader, func(b []byte, r FlowRecord) []byte {
		b = appendInt(b, r.Start)
		b = appendInt(b, r.Duration)
		b = appendIP(b, r.Tuple.SrcIP)
		b = appendIP(b, r.Tuple.DstIP)
		b = appendInt(b, int64(r.Tuple.SrcPort))
		b = appendInt(b, int64(r.Tuple.DstPort))
		b = appendInt(b, int64(r.Tuple.Proto))
		b = appendInt(b, r.Packets)
		b = appendInt(b, r.Bytes)
		return append(b, r.Label.String()...)
	})
}

// ReadFlowCSV parses the flow CSV layout produced by WriteFlowCSV.
func ReadFlowCSV(r io.Reader) (*FlowTrace, error) {
	out := &FlowTrace{}
	err := ScanFlowCSV(r, func(fr FlowRecord) error {
		out.Records = append(out.Records, fr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanFlowCSV parses the flow CSV layout row by row, invoking fn for
// each decoded record. Like ScanPacketCSV it streams — no full-file
// buffering — and rejects semantically impossible values (negative
// duration, packet, or byte counts) so corrupted inputs fail at the
// parser instead of poisoning training statistics downstream. A
// missing, garbled, or duplicated header row is rejected with
// ErrCSVHeader; empty input yields zero rows.
func ScanFlowCSV(r io.Reader, fn func(FlowRecord) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(flowHeader)
	cr.ReuseRecord = true
	labelByName := make(map[string]Label, NumLabels)
	for l := Benign; l < NumLabels; l++ {
		labelByName[l.String()] = l
	}
	for i := 0; ; i++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: read flow csv: %w", err)
		}
		if err := checkHeader(row, flowHeader, i); err != nil {
			return err
		}
		if i == 0 {
			continue // header row
		}
		var fr FlowRecord
		if fr.Start, err = strconv.ParseInt(row[0], 10, 64); err != nil {
			return fmt.Errorf("trace: flow row %d start: %w", i, err)
		}
		if fr.Duration, err = strconv.ParseInt(row[1], 10, 64); err != nil {
			return fmt.Errorf("trace: flow row %d duration: %w", i, err)
		}
		if fr.Duration < 0 {
			return fmt.Errorf("trace: flow row %d has negative duration %d", i, fr.Duration)
		}
		if fr.Tuple.SrcIP, err = ParseIPv4(row[2]); err != nil {
			return fmt.Errorf("trace: flow row %d src ip: %w", i, err)
		}
		if fr.Tuple.DstIP, err = ParseIPv4(row[3]); err != nil {
			return fmt.Errorf("trace: flow row %d dst ip: %w", i, err)
		}
		sp, err := strconv.ParseUint(row[4], 10, 16)
		if err != nil {
			return fmt.Errorf("trace: flow row %d src port: %w", i, err)
		}
		dp, err := strconv.ParseUint(row[5], 10, 16)
		if err != nil {
			return fmt.Errorf("trace: flow row %d dst port: %w", i, err)
		}
		proto, err := strconv.ParseUint(row[6], 10, 8)
		if err != nil {
			return fmt.Errorf("trace: flow row %d proto: %w", i, err)
		}
		if fr.Packets, err = strconv.ParseInt(row[7], 10, 64); err != nil {
			return fmt.Errorf("trace: flow row %d packets: %w", i, err)
		}
		if fr.Packets < 0 {
			return fmt.Errorf("trace: flow row %d has negative packet count %d", i, fr.Packets)
		}
		if fr.Bytes, err = strconv.ParseInt(row[8], 10, 64); err != nil {
			return fmt.Errorf("trace: flow row %d bytes: %w", i, err)
		}
		if fr.Bytes < 0 {
			return fmt.Errorf("trace: flow row %d has negative byte count %d", i, fr.Bytes)
		}
		lbl, ok := labelByName[row[9]]
		if !ok {
			return fmt.Errorf("trace: flow row %d unknown label %q", i, row[9])
		}
		fr.Tuple.SrcPort, fr.Tuple.DstPort = uint16(sp), uint16(dp)
		fr.Tuple.Proto = Protocol(proto)
		fr.Label = lbl
		if err := fn(fr); err != nil {
			return err
		}
	}
}
