package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrUptimeOverflow reports a flow whose SysUptime-relative timestamp does
// not fit the 32-bit millisecond field used by NetFlow v5 and v9 (~49.7
// days). Wrapping the counter would emit records with Last < First, so the
// encoders refuse the record instead.
var ErrUptimeOverflow = errors.New("trace: flow timestamp exceeds 32-bit SysUptime millisecond range")

// checkUptime validates that a record's first/last timestamps, expressed
// relative to base, fit the 32-bit millisecond uptime fields shared by the
// NetFlow v5 and v9 encodings.
func checkUptime(r FlowRecord, base int64) error {
	if (r.Start-base)/1000 > 0xffffffff || (r.End()-base)/1000 > 0xffffffff {
		return fmt.Errorf("%w: flow at %dus spans past base %dus", ErrUptimeOverflow, r.Start, base)
	}
	return nil
}

// Binary NetFlow v5 export so generated flow traces interoperate with
// standard collectors. Records are packed into export packets of up to 30
// flows each (the protocol maximum), with SysUptime-relative first/last
// timestamps in milliseconds.

const (
	nfv5Version   = 5
	nfv5HeaderLen = 24
	nfv5RecordLen = 48
	nfv5MaxPerPkt = 30
)

// NFV5Writer encodes flow records as NetFlow v5 export packets one
// record at a time, buffering at most one 30-record export packet, so a
// download handler can stream a trace of any length with bounded memory.
// base is the SysUptime origin (the earliest flow start in the stream,
// microseconds); it must be known up front because every record's
// first/last timestamps are expressed relative to it. Output is
// byte-identical to WriteNetFlowV5 over the same record sequence and
// base.
type NFV5Writer struct {
	bw    *bufio.Writer
	base  int64
	batch []FlowRecord
	seq   uint32
}

// NewNFV5Writer returns a streaming v5 encoder with the given SysUptime
// origin. Call Flush after the last record to emit the trailing partial
// export packet.
func NewNFV5Writer(w io.Writer, base int64) *NFV5Writer {
	return &NFV5Writer{
		bw:    bufio.NewWriter(w),
		base:  base,
		batch: make([]FlowRecord, 0, nfv5MaxPerPkt),
	}
}

// Write appends one flow record, emitting an export packet whenever 30
// records are buffered. A record whose uptime-relative timestamps exceed
// the 32-bit millisecond range fails with ErrUptimeOverflow and is not
// buffered.
func (nw *NFV5Writer) Write(r FlowRecord) error {
	if err := checkUptime(r, nw.base); err != nil {
		return err
	}
	nw.batch = append(nw.batch, r)
	if len(nw.batch) < nfv5MaxPerPkt {
		return nil
	}
	return nw.emit()
}

func (nw *NFV5Writer) emit() error {
	if len(nw.batch) == 0 {
		return nil
	}
	if err := writeNFv5Packet(nw.bw, nw.batch, nw.base, nw.seq); err != nil {
		return err
	}
	nw.seq += uint32(len(nw.batch))
	nw.batch = nw.batch[:0]
	return nil
}

// Flush emits any trailing partial export packet and drains the buffer.
func (nw *NFV5Writer) Flush() error {
	if err := nw.emit(); err != nil {
		return err
	}
	return nw.bw.Flush()
}

func writeNFv5Packet(w io.Writer, batch []FlowRecord, base int64, seq uint32) error {
	var hdr [nfv5HeaderLen]byte
	binary.BigEndian.PutUint16(hdr[0:], nfv5Version)
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(batch)))
	// SysUptime: the latest flow end in this packet, ms.
	var up uint32
	for _, r := range batch {
		if ms := clampMS((r.End() - base) / 1000); ms > up {
			up = ms
		}
	}
	binary.BigEndian.PutUint32(hdr[4:], up)
	// unix_secs/unix_nsecs anchored at the trace epoch (0): left zero.
	binary.BigEndian.PutUint32(hdr[16:], seq)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: write nfv5 header: %w", err)
	}

	var rec [nfv5RecordLen]byte
	for _, r := range batch {
		for i := range rec {
			rec[i] = 0
		}
		binary.BigEndian.PutUint32(rec[0:], uint32(r.Tuple.SrcIP))
		binary.BigEndian.PutUint32(rec[4:], uint32(r.Tuple.DstIP))
		// nexthop (8:12) zero.
		binary.BigEndian.PutUint32(rec[16:], clampU32(r.Packets))
		binary.BigEndian.PutUint32(rec[20:], clampU32(r.Bytes))
		binary.BigEndian.PutUint32(rec[24:], clampMS((r.Start-base)/1000))
		binary.BigEndian.PutUint32(rec[28:], clampMS((r.End()-base)/1000))
		binary.BigEndian.PutUint16(rec[32:], r.Tuple.SrcPort)
		binary.BigEndian.PutUint16(rec[34:], r.Tuple.DstPort)
		rec[38] = byte(r.Tuple.Proto)
		if _, err := w.Write(rec[:]); err != nil {
			return fmt.Errorf("trace: write nfv5 record: %w", err)
		}
	}
	return nil
}

func clampU32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > 0xffffffff {
		return 0xffffffff
	}
	return uint32(v)
}

func clampMS(ms int64) uint32 { return clampU32(ms) }

// ReadNetFlowV5 parses a stream of NetFlow v5 export packets written by
// WriteNetFlowV5 (or any v5 exporter). Times come back in microseconds
// relative to the stream's SysUptime origin; labels are not part of v5 and
// read back as Benign.
func ReadNetFlowV5(r io.Reader) (*FlowTrace, error) {
	br := bufio.NewReader(r)
	out := &FlowTrace{}
	var hdr [nfv5HeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("trace: read nfv5 header: %w", err)
		}
		if v := binary.BigEndian.Uint16(hdr[0:]); v != nfv5Version {
			return nil, fmt.Errorf("trace: unsupported NetFlow version %d", v)
		}
		count := int(binary.BigEndian.Uint16(hdr[2:]))
		if count == 0 || count > nfv5MaxPerPkt {
			return nil, fmt.Errorf("trace: nfv5 packet claims %d records", count)
		}
		var rec [nfv5RecordLen]byte
		for i := 0; i < count; i++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, fmt.Errorf("trace: read nfv5 record: %w", err)
			}
			first := int64(binary.BigEndian.Uint32(rec[24:])) * 1000
			last := int64(binary.BigEndian.Uint32(rec[28:])) * 1000
			fr := FlowRecord{
				Tuple: FiveTuple{
					SrcIP:   IPv4(binary.BigEndian.Uint32(rec[0:])),
					DstIP:   IPv4(binary.BigEndian.Uint32(rec[4:])),
					SrcPort: binary.BigEndian.Uint16(rec[32:]),
					DstPort: binary.BigEndian.Uint16(rec[34:]),
					Proto:   Protocol(rec[38]),
				},
				Start:    first,
				Duration: last - first,
				Packets:  int64(binary.BigEndian.Uint32(rec[16:])),
				Bytes:    int64(binary.BigEndian.Uint32(rec[20:])),
			}
			out.Records = append(out.Records, fr)
		}
	}
}
