package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/container"
	"repro/internal/trace"
)

// maxManifestBytes bounds the JSON manifests a reader will load.
const maxManifestBytes = 64 << 20

// Store is an opened trace store. Open loads and validates the
// manifests (top-level and per-partition) but touches no column bytes;
// blocks are read and decoded on demand by queries.
type Store struct {
	dir    string
	kind   trace.Kind
	m      manifest
	parts  []partManifest
	colPos map[string]int
}

// Open opens the store at dir, validating manifest structure. A missing
// or unreadable store.json is ErrNotStore (the directory is not — or
// not yet — a store); internal inconsistencies are ErrCorrupt.
func Open(dir string) (*Store, error) {
	doc, err := readLimited(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNotStore, dir, err)
	}
	var m manifest
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNotStore, dir, err)
	}
	if m.Version > Version {
		return nil, fmt.Errorf("%w: store version %d newer than supported %d", ErrCorrupt, m.Version, Version)
	}
	kind, ok := trace.ParseKind(m.Kind)
	if !ok {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrCorrupt, m.Kind)
	}
	want := columnsFor(kind)
	if len(m.Columns) != len(want) {
		return nil, fmt.Errorf("%w: %d columns, want %d", ErrCorrupt, len(m.Columns), len(want))
	}
	for i, c := range want {
		if m.Columns[i] != c {
			return nil, fmt.Errorf("%w: column %d is %q, want %q", ErrCorrupt, i, m.Columns[i], c)
		}
	}
	if m.BlockRows <= 0 || m.BlockRows > maxBlockDecodeRows {
		return nil, fmt.Errorf("%w: block rows %d out of range", ErrCorrupt, m.BlockRows)
	}
	s := &Store{
		dir:    dir,
		kind:   kind,
		m:      m,
		parts:  make([]partManifest, len(m.Partitions)),
		colPos: make(map[string]int, len(want)),
	}
	for i, c := range want {
		s.colPos[c] = i
	}
	var rows int64
	for i, pi := range m.Partitions {
		if filepath.Base(pi.Name) != pi.Name || pi.Name == "." || pi.Name == ".." {
			return nil, fmt.Errorf("%w: bad partition name %q", ErrCorrupt, pi.Name)
		}
		pm, err := s.loadPart(i)
		if err != nil {
			return nil, err
		}
		s.parts[i] = pm
		rows += pi.Rows
	}
	if rows != m.Rows {
		return nil, fmt.Errorf("%w: partitions hold %d rows, manifest says %d", ErrCorrupt, rows, m.Rows)
	}
	return s, nil
}

// loadPart loads and structurally validates one partition manifest.
func (s *Store) loadPart(i int) (partManifest, error) {
	pi := s.m.Partitions[i]
	pdir := filepath.Join(s.dir, pi.Name)
	doc, err := readLimited(filepath.Join(pdir, PartManifestName))
	if err != nil {
		return partManifest{}, fmt.Errorf("%w: partition %s: %v", ErrCorrupt, pi.Name, err)
	}
	var pm partManifest
	if err := json.Unmarshal(doc, &pm); err != nil {
		return partManifest{}, fmt.Errorf("%w: partition %s manifest: %v", ErrCorrupt, pi.Name, err)
	}
	var rows int64
	for bi, b := range pm.Blocks {
		if b.Rows <= 0 || b.Rows > s.m.BlockRows {
			return partManifest{}, fmt.Errorf("%w: partition %s block %d has %d rows (block size %d)", ErrCorrupt, pi.Name, bi, b.Rows, s.m.BlockRows)
		}
		rows += int64(b.Rows)
	}
	if rows != pm.Rows || rows != pi.Rows {
		return partManifest{}, fmt.Errorf("%w: partition %s rows: blocks %d, part manifest %d, store manifest %d", ErrCorrupt, pi.Name, rows, pm.Rows, pi.Rows)
	}
	for _, c := range s.m.Columns {
		ci, ok := pm.Columns[c]
		if !ok {
			return partManifest{}, fmt.Errorf("%w: partition %s missing column %q", ErrCorrupt, pi.Name, c)
		}
		if len(ci.Offsets) != len(pm.Blocks) || len(ci.Sizes) != len(pm.Blocks) {
			return partManifest{}, fmt.Errorf("%w: partition %s column %q indexes %d blocks, manifest has %d", ErrCorrupt, pi.Name, c, len(ci.Offsets), len(pm.Blocks))
		}
		for bi := range ci.Offsets {
			if ci.Offsets[bi] < 0 || ci.Sizes[bi] < int64(container.HeaderLen) {
				return partManifest{}, fmt.Errorf("%w: partition %s column %q block %d has impossible frame bounds", ErrCorrupt, pi.Name, c, bi)
			}
		}
	}
	return pm, nil
}

// readLimited reads a small file with a hard size cap.
func readLimited(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, maxManifestBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxManifestBytes {
		return nil, fmt.Errorf("file exceeds %d bytes", maxManifestBytes)
	}
	return data, nil
}

// Kind returns the trace kind the store holds.
func (s *Store) Kind() trace.Kind { return s.kind }

// Rows returns the total row count.
func (s *Store) Rows() int64 { return s.m.Rows }

// TimeRange returns the store's [min, max] timestamp span in trace
// microseconds (flow start for netflow, capture time for pcap).
func (s *Store) TimeRange() (min, max int64) { return s.m.MinTime, s.m.MaxTime }

// Partitions returns the partition count.
func (s *Store) Partitions() int { return len(s.m.Partitions) }

// colReader reads one column's blocks from its .col file, keeping the
// file open across block reads within a partition scan.
type colReader struct {
	f   *os.File
	idx colIndex
	buf []byte
}

// openColumn opens column col of partition p for block reads.
func (s *Store) openColumn(p int, col string) (*colReader, error) {
	pi := s.m.Partitions[p]
	ci, ok := s.parts[p].Columns[col]
	if !ok {
		return nil, fmt.Errorf("%w: partition %s missing column %q", ErrCorrupt, pi.Name, col)
	}
	f, err := os.Open(filepath.Join(s.dir, pi.Name, col+colExt))
	if err != nil {
		return nil, fmt.Errorf("%w: partition %s column %q: %v", ErrCorrupt, pi.Name, col, err)
	}
	return &colReader{f: f, idx: ci}, nil
}

func (cr *colReader) Close() error { return cr.f.Close() }

// readBlock reads, CRC-checks and decodes block b of the column.
func (cr *colReader) readBlock(b int, wantRows int) ([]int64, error) {
	size := cr.idx.Sizes[b]
	if int64(cap(cr.buf)) < size {
		cr.buf = make([]byte, size)
	}
	buf := cr.buf[:size]
	if _, err := cr.f.ReadAt(buf, cr.idx.Offsets[b]); err != nil {
		return nil, fmt.Errorf("%w: read block %d of %s: %v", ErrBadBlock, b, cr.f.Name(), err)
	}
	mBytesRead.Add(size)
	payload, err := container.DecodeKind(buf, container.KindColumnBlock)
	if err != nil {
		return nil, fmt.Errorf("%w: block %d of %s: %v", ErrBadBlock, b, cr.f.Name(), err)
	}
	vals, err := decodeBlock(payload, wantRows)
	if err != nil {
		return nil, fmt.Errorf("%s block %d: %w", cr.f.Name(), b, err)
	}
	return vals, nil
}

// Verify decodes every block of every column, cross-checking row counts
// against the manifests. It is the deep integrity check behind registry
// sweeps: any torn frame, CRC mismatch, or malformed encoding surfaces
// as a typed error naming the damaged block.
func (s *Store) Verify() error {
	for p := range s.m.Partitions {
		pm := s.parts[p]
		for _, c := range s.m.Columns {
			cr, err := s.openColumn(p, c)
			if err != nil {
				return err
			}
			for b := range pm.Blocks {
				if _, err := cr.readBlock(b, pm.Blocks[b].Rows); err != nil {
					cr.Close()
					return err
				}
			}
			if err := cr.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanRows streams every row of the store in order to fn as
// column-ordered values (valid only for the duration of the call).
// Decodes every column; use Query for predicate-pushdown reads.
func (s *Store) scanRows(fn func(row []int64) error) error {
	row := make([]int64, len(s.m.Columns))
	for p := range s.m.Partitions {
		pm := s.parts[p]
		readers := make([]*colReader, len(s.m.Columns))
		for i, c := range s.m.Columns {
			cr, err := s.openColumn(p, c)
			if err != nil {
				closeAll(readers[:i])
				return err
			}
			readers[i] = cr
		}
		cols := make([][]int64, len(readers))
		for b := range pm.Blocks {
			for i, cr := range readers {
				vals, err := cr.readBlock(b, pm.Blocks[b].Rows)
				if err != nil {
					closeAll(readers)
					return err
				}
				cols[i] = vals
			}
			mBlocksRead.Add(int64(len(readers)))
			mColsDecoded.Add(int64(len(readers)))
			for r := 0; r < pm.Blocks[b].Rows; r++ {
				for i := range cols {
					row[i] = cols[i][r]
				}
				if err := fn(row); err != nil {
					closeAll(readers)
					return err
				}
			}
		}
		closeAll(readers)
	}
	return nil
}

func closeAll(readers []*colReader) {
	for _, cr := range readers {
		if cr != nil {
			cr.Close()
		}
	}
}

// FlowRecords materializes the whole store as a flow trace.
func (s *Store) FlowRecords() (*trace.FlowTrace, error) {
	if s.kind != trace.KindNetFlow {
		return nil, fmt.Errorf("%w: %s store is not netflow", ErrWrongKind, s.kind)
	}
	out := &trace.FlowTrace{Records: make([]trace.FlowRecord, 0, s.m.Rows)}
	err := s.scanRows(func(row []int64) error {
		out.Records = append(out.Records, flowFromRow(row))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PacketRecords materializes the whole store as a packet trace.
func (s *Store) PacketRecords() (*trace.PacketTrace, error) {
	if s.kind != trace.KindPCAP {
		return nil, fmt.Errorf("%w: %s store is not pcap", ErrWrongKind, s.kind)
	}
	out := &trace.PacketTrace{Packets: make([]trace.Packet, 0, s.m.Rows)}
	err := s.scanRows(func(row []int64) error {
		out.Packets = append(out.Packets, packetFromRow(row))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanFlows streams every flow record in row order.
func (s *Store) ScanFlows(fn func(trace.FlowRecord) error) error {
	if s.kind != trace.KindNetFlow {
		return fmt.Errorf("%w: %s store is not netflow", ErrWrongKind, s.kind)
	}
	return s.scanRows(func(row []int64) error { return fn(flowFromRow(row)) })
}

// ScanPackets streams every packet record in row order.
func (s *Store) ScanPackets(fn func(trace.Packet) error) error {
	if s.kind != trace.KindPCAP {
		return fmt.Errorf("%w: %s store is not pcap", ErrWrongKind, s.kind)
	}
	return s.scanRows(func(row []int64) error { return fn(packetFromRow(row)) })
}

// DiskSize returns the store's total on-disk byte size.
func (s *Store) DiskSize() (int64, error) {
	var total int64
	err := filepath.WalkDir(s.dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			total += fi.Size()
		}
		return nil
	})
	return total, err
}
