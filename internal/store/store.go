// Package store implements the columnar, block-compressed,
// time-partitioned on-disk trace format behind TB-scale synthetic trace
// serving (DESIGN.md §13), in the spirit of goProbe's GPFile database.
//
// A store is a directory:
//
//	<dir>/
//	  store.json        top-level manifest: kind, columns, row counts,
//	                    partition index with per-partition time ranges
//	  p00000/           one directory per partition
//	    part.json       partition manifest: per-block row counts and
//	                    time ranges, per-column block byte ranges
//	    start_us.col    one column-group file per header field, holding
//	    src_ip.col      the column's blocks as concatenated container
//	    ...             frames (internal/container, KindColumnBlock)
//
// Rows are partitioned in arrival order into fixed-maximum-row-count
// partitions and, within a partition, into fixed-row-count blocks; every
// partition and block records the min/max timestamp of its rows, so a
// time-windowed query prunes partitions and blocks without touching
// their bytes even when the input was not perfectly time-sorted.
// NetShare's own pipeline is field-columnar per header attribute (paper
// §4), so one column group per CSV column matches the data model
// exactly.
//
// Each block is independently compressed with a per-block encoding
// chosen by measurement — zigzag varints, delta varints, sorted
// dictionary, optionally DEFLATE on top — and framed with the shared
// container header, so truncation and bit rot surface as typed errors
// at the damaged block, never as panics, and readers decode only the
// blocks and columns a query actually touches.
//
// Crash ordering follows the registry discipline: column files are
// written (atomically, fsynced) before their partition manifest, and
// all partitions before the top-level manifest, so a crashed writer
// leaves a directory without store.json — invalid, reclaimable — never
// a manifest pointing at missing bytes.
package store

import (
	"errors"

	"repro/internal/trace"
)

// Version is the store format version; Open rejects newer stores.
const Version = 1

// ManifestName is the top-level manifest file; its presence (and
// validity) is what makes a directory a store.
const ManifestName = "store.json"

// PartManifestName is the per-partition manifest file.
const PartManifestName = "part.json"

// colExt is the column-group file extension.
const colExt = ".col"

// Typed failures, matchable with errors.Is.
var (
	// ErrNotStore marks a directory without a readable top-level manifest.
	ErrNotStore = errors.New("store: not a trace store")
	// ErrCorrupt marks structural inconsistencies between manifests and
	// the bytes on disk (missing partitions, impossible block indexes,
	// row-count mismatches).
	ErrCorrupt = errors.New("store: corrupt")
	// ErrBadBlock marks a column block that failed to decode: torn frame,
	// CRC mismatch, or malformed encoding payload.
	ErrBadBlock = errors.New("store: bad column block")
	// ErrWrongKind marks a store of the other trace kind than requested.
	ErrWrongKind = errors.New("store: wrong trace kind")
	// ErrBadFilter marks an unparsable query filter expression.
	ErrBadFilter = errors.New("store: bad filter")
)

// Column names one stored header field. Values match the trace CSV
// header columns so the two layouts line up one-to-one.
type Column = string

// The column groups of each trace kind. The time column (start_us /
// time_us) is always first: it drives partition and block pruning.
const (
	ColStart    Column = "start_us"
	ColDuration Column = "duration_us"
	ColTime     Column = "time_us"
	ColSrcIP    Column = "src_ip"
	ColDstIP    Column = "dst_ip"
	ColSrcPort  Column = "src_port"
	ColDstPort  Column = "dst_port"
	ColProto    Column = "proto"
	ColPackets  Column = "packets"
	ColBytes    Column = "bytes"
	ColLabel    Column = "label"
	ColSize     Column = "size"
	ColTTL      Column = "ttl"
	ColFlags    Column = "flags"
)

// flowColumns is the column order of a netflow store; it mirrors the
// flow CSV header.
var flowColumns = []Column{
	ColStart, ColDuration, ColSrcIP, ColDstIP, ColSrcPort, ColDstPort,
	ColProto, ColPackets, ColBytes, ColLabel,
}

// packetColumns is the column order of a pcap store; it mirrors the
// packet CSV header.
var packetColumns = []Column{
	ColTime, ColSrcIP, ColDstIP, ColSrcPort, ColDstPort,
	ColProto, ColSize, ColTTL, ColFlags,
}

// columnsFor returns the column layout of a trace kind.
func columnsFor(kind trace.Kind) []Column {
	if kind == trace.KindPCAP {
		return packetColumns
	}
	return flowColumns
}

// flowRow flattens a flow record into column order.
func flowRow(r trace.FlowRecord, dst []int64) []int64 {
	return append(dst[:0],
		r.Start, r.Duration, int64(uint32(r.Tuple.SrcIP)), int64(uint32(r.Tuple.DstIP)),
		int64(r.Tuple.SrcPort), int64(r.Tuple.DstPort), int64(r.Tuple.Proto),
		r.Packets, r.Bytes, int64(r.Label))
}

// packetRow flattens a packet record into column order.
func packetRow(p trace.Packet, dst []int64) []int64 {
	return append(dst[:0],
		p.Time, int64(uint32(p.Tuple.SrcIP)), int64(uint32(p.Tuple.DstIP)),
		int64(p.Tuple.SrcPort), int64(p.Tuple.DstPort), int64(p.Tuple.Proto),
		int64(p.Size), int64(p.TTL), int64(p.Flags))
}

// flowFromRow rebuilds a flow record from column-ordered values.
func flowFromRow(v []int64) trace.FlowRecord {
	return trace.FlowRecord{
		Start:    v[0],
		Duration: v[1],
		Tuple: trace.FiveTuple{
			SrcIP:   trace.IPv4(uint32(v[2])),
			DstIP:   trace.IPv4(uint32(v[3])),
			SrcPort: uint16(v[4]),
			DstPort: uint16(v[5]),
			Proto:   trace.Protocol(v[6]),
		},
		Packets: v[7],
		Bytes:   v[8],
		Label:   trace.Label(v[9]),
	}
}

// packetFromRow rebuilds a packet from column-ordered values.
func packetFromRow(v []int64) trace.Packet {
	return trace.Packet{
		Time: v[0],
		Tuple: trace.FiveTuple{
			SrcIP:   trace.IPv4(uint32(v[1])),
			DstIP:   trace.IPv4(uint32(v[2])),
			SrcPort: uint16(v[3]),
			DstPort: uint16(v[4]),
			Proto:   trace.Protocol(v[5]),
		},
		Size:  int(v[6]),
		TTL:   uint8(v[7]),
		Flags: uint8(v[8]),
	}
}

// manifest is the top-level store.json document.
type manifest struct {
	Version   int    `json:"version"`
	Kind      string `json:"kind"`
	BlockRows int    `json:"blockRows"`
	Rows      int64  `json:"rows"`
	MinTime   int64  `json:"minTime"`
	MaxTime   int64  `json:"maxTime"`
	// Columns records the column layout the store was written with, so a
	// reader can reject stores from a future schema.
	Columns    []string   `json:"columns"`
	Partitions []partInfo `json:"partitions"`
}

// partInfo is one partition's entry in the top-level manifest.
type partInfo struct {
	Name    string `json:"name"`
	Rows    int64  `json:"rows"`
	MinTime int64  `json:"minTime"`
	MaxTime int64  `json:"maxTime"`
}

// partManifest is the per-partition part.json document.
type partManifest struct {
	Rows    int64               `json:"rows"`
	MinTime int64               `json:"minTime"`
	MaxTime int64               `json:"maxTime"`
	Blocks  []blockInfo         `json:"blocks"`
	Columns map[string]colIndex `json:"columns"`
}

// blockInfo is one row-block's shape, shared by every column of the
// partition (all columns block on the same row boundaries).
type blockInfo struct {
	Rows    int   `json:"rows"`
	MinTime int64 `json:"minTime"`
	MaxTime int64 `json:"maxTime"`
}

// colIndex locates one column's framed blocks inside its .col file.
type colIndex struct {
	// Offsets[i] is the byte offset of block i's container frame;
	// Sizes[i] its framed length. len == len(Blocks).
	Offsets []int64 `json:"offsets"`
	Sizes   []int64 `json:"sizes"`
}
