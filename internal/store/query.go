package store

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Filter is a conjunctive row predicate: every set field must match.
// Nil pointer fields are wildcards. HasWindow gates the [From, To] time
// window (microseconds, inclusive; the time column is flow start for
// netflow stores, capture time for pcap).
type Filter struct {
	HasWindow bool
	From, To  int64

	SrcIP   *trace.IPv4
	DstIP   *trace.IPv4
	SrcPort *uint16
	DstPort *uint16
	Proto   *trace.Protocol
	Label   *trace.Label // netflow stores only
}

// Window returns a filter restricted to [from, to].
func (f Filter) Window(from, to int64) Filter {
	f.HasWindow, f.From, f.To = true, from, to
	return f
}

// columns returns the non-time predicate columns the filter touches.
func (f Filter) columns() []Column {
	var cols []Column
	if f.SrcIP != nil {
		cols = append(cols, ColSrcIP)
	}
	if f.DstIP != nil {
		cols = append(cols, ColDstIP)
	}
	if f.SrcPort != nil {
		cols = append(cols, ColSrcPort)
	}
	if f.DstPort != nil {
		cols = append(cols, ColDstPort)
	}
	if f.Proto != nil {
		cols = append(cols, ColProto)
	}
	if f.Label != nil {
		cols = append(cols, ColLabel)
	}
	return cols
}

// want returns the required value of a predicate column.
func (f Filter) want(col Column) int64 {
	switch col {
	case ColSrcIP:
		return int64(uint32(*f.SrcIP))
	case ColDstIP:
		return int64(uint32(*f.DstIP))
	case ColSrcPort:
		return int64(*f.SrcPort)
	case ColDstPort:
		return int64(*f.DstPort)
	case ColProto:
		return int64(*f.Proto)
	case ColLabel:
		return int64(*f.Label)
	}
	panic("store: not a predicate column: " + col)
}

// ParseFilter parses the query-string filter syntax: comma-separated
// key=value terms over src_ip, dst_ip, src_port, dst_port, proto and
// label, e.g. "src_ip=10.0.0.1,dst_port=443,proto=tcp". Protocols
// accept names (tcp, udp, icmp) or numbers; labels accept the trace
// label names. Keys and values tolerate surrounding whitespace; a key
// appearing twice is rejected rather than silently keeping the last
// occurrence. An empty string is the match-all filter.
func ParseFilter(s string) (Filter, error) {
	var f Filter
	s = strings.TrimSpace(s)
	if s == "" {
		return f, nil
	}
	seen := make(map[string]bool)
	for _, term := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(term), "=")
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if !ok || val == "" {
			return f, fmt.Errorf("%w: term %q is not key=value", ErrBadFilter, term)
		}
		if seen[key] {
			return f, fmt.Errorf("%w: duplicate key %q (each key may appear once)", ErrBadFilter, key)
		}
		seen[key] = true
		switch key {
		case ColSrcIP, ColDstIP:
			ip, err := trace.ParseIPv4(val)
			if err != nil {
				return f, fmt.Errorf("%w: %s: %v", ErrBadFilter, key, err)
			}
			if key == ColSrcIP {
				f.SrcIP = &ip
			} else {
				f.DstIP = &ip
			}
		case ColSrcPort, ColDstPort:
			n, err := strconv.ParseUint(val, 10, 16)
			if err != nil {
				return f, fmt.Errorf("%w: %s: %q is not a port", ErrBadFilter, key, val)
			}
			p := uint16(n)
			if key == ColSrcPort {
				f.SrcPort = &p
			} else {
				f.DstPort = &p
			}
		case ColProto:
			p, err := parseProto(val)
			if err != nil {
				return f, err
			}
			f.Proto = &p
		case ColLabel:
			l, err := parseLabel(val)
			if err != nil {
				return f, err
			}
			f.Label = &l
		default:
			return f, fmt.Errorf("%w: unknown key %q", ErrBadFilter, key)
		}
	}
	return f, nil
}

func parseProto(val string) (trace.Protocol, error) {
	switch strings.ToLower(val) {
	case "tcp":
		return trace.TCP, nil
	case "udp":
		return trace.UDP, nil
	case "icmp":
		return trace.ICMP, nil
	}
	n, err := strconv.ParseUint(val, 10, 8)
	if err != nil {
		return 0, fmt.Errorf("%w: proto: %q is neither a name nor a number", ErrBadFilter, val)
	}
	return trace.Protocol(n), nil
}

func parseLabel(val string) (trace.Label, error) {
	for l := trace.Benign; l < trace.NumLabels; l++ {
		if l.String() == strings.ToLower(val) {
			return l, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown label %q", ErrBadFilter, val)
}

// Stats reports what a query touched, mirroring the store.* telemetry
// counters so tests and callers can assert the pruning and
// column-projection guarantees per query.
type Stats struct {
	Partitions       int   `json:"partitions"`
	PartitionsPruned int   `json:"partitionsPruned"`
	BlocksRead       int   `json:"blocksRead"`
	BlocksSkipped    int   `json:"blocksSkipped"`
	ColumnsDecoded   int   `json:"columnsDecoded"`
	RowsScanned      int64 `json:"rowsScanned"`
	RowsMatched      int64 `json:"rowsMatched"`
}

// errStopScan aborts a query early (row limit reached).
var errStopScan = errors.New("store: stop scan")

// query is the predicate-pushdown scan engine. It prunes partitions and
// blocks by time range, decodes predicate columns first (cheapest-win
// order: each one narrows the candidate row set, and a block whose
// candidate set empties is abandoned before its remaining columns are
// touched), and only then decodes the out columns of surviving rows. fn
// receives the out-column values per matching row; the slice is reused
// across calls.
func (s *Store) query(f Filter, out []Column, fn func(vals []int64) error) (Stats, error) {
	var st Stats
	mQueries.Inc()
	predCols := f.columns()
	for _, c := range append(append([]Column{}, predCols...), out...) {
		if _, ok := s.colPos[c]; !ok {
			return st, fmt.Errorf("%w: column %q not in %s store", ErrBadFilter, c, s.kind)
		}
	}
	vals := make([]int64, len(out))
	for p := range s.m.Partitions {
		pi := s.m.Partitions[p]
		st.Partitions++
		if f.HasWindow && (pi.MaxTime < f.From || pi.MinTime > f.To) {
			st.PartitionsPruned++
			mPartsPruned.Inc()
			continue
		}
		mPartsScanned.Inc()
		if err := s.queryPartition(p, f, predCols, out, vals, &st, fn); err != nil {
			if errors.Is(err, errStopScan) {
				return st, nil
			}
			return st, err
		}
	}
	return st, nil
}

func (s *Store) queryPartition(p int, f Filter, predCols, out []Column, vals []int64, st *Stats, fn func([]int64) error) error {
	pm := s.parts[p]
	readers := make(map[Column]*colReader, len(predCols)+len(out)+1)
	defer func() {
		for _, cr := range readers {
			cr.Close()
		}
	}()
	open := func(c Column) (*colReader, error) {
		if cr, ok := readers[c]; ok {
			return cr, nil
		}
		cr, err := s.openColumn(p, c)
		if err != nil {
			return nil, err
		}
		readers[c] = cr
		return cr, nil
	}
	timeCol := s.m.Columns[0]
	// cand is the candidate row index set within the current block;
	// cols caches decoded columns of the current block.
	var cand []int32
	cols := make(map[Column][]int64, len(readers))
	decode := func(c Column, b int) ([]int64, error) {
		if v, ok := cols[c]; ok {
			return v, nil
		}
		cr, err := open(c)
		if err != nil {
			return nil, err
		}
		v, err := cr.readBlock(b, pm.Blocks[b].Rows)
		if err != nil {
			return nil, err
		}
		cols[c] = v
		st.ColumnsDecoded++
		mColsDecoded.Inc()
		return v, nil
	}

	for b := range pm.Blocks {
		bi := pm.Blocks[b]
		if f.HasWindow && (bi.MaxTime < f.From || bi.MinTime > f.To) {
			st.BlocksSkipped++
			mBlocksSkip.Inc()
			continue
		}
		st.BlocksRead++
		mBlocksRead.Inc()
		st.RowsScanned += int64(bi.Rows)
		mRowsScanned.Add(int64(bi.Rows))
		for c := range cols {
			delete(cols, c)
		}
		cand = cand[:0]
		for r := 0; r < bi.Rows; r++ {
			cand = append(cand, int32(r))
		}
		// Exact time filtering is needed only when the block straddles
		// the window edge; a fully-contained block skips the decode.
		if f.HasWindow && !(bi.MinTime >= f.From && bi.MaxTime <= f.To) {
			times, err := decode(timeCol, b)
			if err != nil {
				return err
			}
			cand = narrowRange(cand, times, f.From, f.To)
		}
		for _, c := range predCols {
			if len(cand) == 0 {
				break
			}
			col, err := decode(c, b)
			if err != nil {
				return err
			}
			cand = narrowEq(cand, col, f.want(c))
		}
		if len(cand) == 0 {
			continue
		}
		outVals := make([][]int64, len(out))
		for i, c := range out {
			v, err := decode(c, b)
			if err != nil {
				return err
			}
			outVals[i] = v
		}
		for _, r := range cand {
			st.RowsMatched++
			for i := range outVals {
				vals[i] = outVals[i][r]
			}
			if err := fn(vals); err != nil {
				return err
			}
		}
	}
	return nil
}

func narrowRange(cand []int32, col []int64, lo, hi int64) []int32 {
	keep := cand[:0]
	for _, r := range cand {
		if v := col[r]; v >= lo && v <= hi {
			keep = append(keep, r)
		}
	}
	return keep
}

func narrowEq(cand []int32, col []int64, want int64) []int32 {
	keep := cand[:0]
	for _, r := range cand {
		if col[r] == want {
			keep = append(keep, r)
		}
	}
	return keep
}

func indexOf(cols []Column, c Column) int {
	for i, x := range cols {
		if x == c {
			return i
		}
	}
	return -1
}

// Count returns the number of rows matching f, decoding only predicate
// columns (and the time column for window-straddling blocks).
func (s *Store) Count(f Filter) (int64, Stats, error) {
	var n int64
	st, err := s.query(f, nil, func([]int64) error {
		n++
		return nil
	})
	return n, st, err
}

// QueryFlows returns up to limit flow records matching f, in row order.
// limit <= 0 means no limit.
func (s *Store) QueryFlows(f Filter, limit int) ([]trace.FlowRecord, Stats, error) {
	if s.kind != trace.KindNetFlow {
		return nil, Stats{}, fmt.Errorf("%w: %s store is not netflow", ErrWrongKind, s.kind)
	}
	var recs []trace.FlowRecord
	st, err := s.query(f, flowColumns, func(vals []int64) error {
		recs = append(recs, flowFromRow(vals))
		if limit > 0 && len(recs) >= limit {
			return errStopScan
		}
		return nil
	})
	return recs, st, err
}

// QueryPackets returns up to limit packets matching f, in row order.
// limit <= 0 means no limit.
func (s *Store) QueryPackets(f Filter, limit int) ([]trace.Packet, Stats, error) {
	if s.kind != trace.KindPCAP {
		return nil, Stats{}, fmt.Errorf("%w: %s store is not pcap", ErrWrongKind, s.kind)
	}
	var recs []trace.Packet
	st, err := s.query(f, packetColumns, func(vals []int64) error {
		recs = append(recs, packetFromRow(vals))
		if limit > 0 && len(recs) >= limit {
			return errStopScan
		}
		return nil
	})
	return recs, st, err
}

// Talker is one aggregation bucket of TopTalkers / PortCounts.
type Talker struct {
	Key   string `json:"key"`
	Rows  int64  `json:"rows"`
	Bytes int64  `json:"bytes"`
}

// TopTalkers returns the k source addresses carrying the most bytes
// among rows matching f (netflow: flow bytes; pcap: packet sizes),
// decoding only the source-address and byte columns beyond the
// predicate. Ties break toward more rows, then lexical key order.
func (s *Store) TopTalkers(f Filter, k int) ([]Talker, Stats, error) {
	byteCol := ColBytes
	if s.kind == trace.KindPCAP {
		byteCol = ColSize
	}
	type agg struct{ rows, bytes int64 }
	buckets := make(map[int64]*agg)
	st, err := s.query(f, []Column{ColSrcIP, byteCol}, func(vals []int64) error {
		a := buckets[vals[0]]
		if a == nil {
			a = &agg{}
			buckets[vals[0]] = a
		}
		a.rows++
		a.bytes += vals[1]
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	out := make([]Talker, 0, len(buckets))
	for ip, a := range buckets {
		out = append(out, Talker{Key: trace.IPv4(uint32(ip)).String(), Rows: a.rows, Bytes: a.bytes})
	}
	sortTalkers(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, st, nil
}

// PortCounts returns the k destination ports with the most matching
// rows, with byte totals.
func (s *Store) PortCounts(f Filter, k int) ([]Talker, Stats, error) {
	byteCol := ColBytes
	if s.kind == trace.KindPCAP {
		byteCol = ColSize
	}
	type agg struct{ rows, bytes int64 }
	buckets := make(map[int64]*agg)
	st, err := s.query(f, []Column{ColDstPort, byteCol}, func(vals []int64) error {
		a := buckets[vals[0]]
		if a == nil {
			a = &agg{}
			buckets[vals[0]] = a
		}
		a.rows++
		a.bytes += vals[1]
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	out := make([]Talker, 0, len(buckets))
	for port, a := range buckets {
		out = append(out, Talker{Key: strconv.FormatInt(port, 10), Rows: a.rows, Bytes: a.bytes})
	}
	sortTalkers(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, st, nil
}

// sortTalkers orders buckets by bytes desc, rows desc, key asc.
func sortTalkers(ts []Talker) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Bytes != ts[j].Bytes {
			return ts[i].Bytes > ts[j].Bytes
		}
		if ts[i].Rows != ts[j].Rows {
			return ts[i].Rows > ts[j].Rows
		}
		return ts[i].Key < ts[j].Key
	})
}
