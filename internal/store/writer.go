package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/container"
	"repro/internal/trace"
)

// Writer defaults. 4096-row blocks keep a decoded column under 32KiB
// (L1-friendly) while amortizing the 20-byte frame header to ~0.005
// bytes/row; 64Ki-row partitions keep one partition's compressed bytes
// comfortably in memory while giving time pruning useful granularity.
const (
	DefaultBlockRows     = 4096
	DefaultPartitionRows = 1 << 16
)

// Options tune a Writer; the zero value means defaults.
type Options struct {
	// BlockRows is the fixed row count per column block (last block of a
	// partition may be shorter).
	BlockRows int
	// PartitionRows is the maximum row count per partition.
	PartitionRows int
}

func (o Options) withDefaults() Options {
	if o.BlockRows <= 0 {
		o.BlockRows = DefaultBlockRows
	}
	if o.PartitionRows <= 0 {
		o.PartitionRows = DefaultPartitionRows
	}
	// Partition boundaries must fall on block boundaries so every block
	// except a partition's last is exactly BlockRows.
	if o.PartitionRows < o.BlockRows {
		o.PartitionRows = o.BlockRows
	}
	o.PartitionRows -= o.PartitionRows % o.BlockRows
	return o
}

// Writer appends trace records to a store directory, buffering at most
// one partition's compressed bytes plus one block's raw values in
// memory. Nothing under dir is a valid store until Close writes the
// top-level manifest; a crash mid-write leaves an ErrNotStore directory
// that sweep logic can reclaim.
type Writer struct {
	dir  string
	kind trace.Kind
	cols []Column
	opt  Options

	// Current block: one value slice per column, ≤ BlockRows rows.
	block [][]int64
	row   []int64

	// Current partition: per-column concatenated frames + index.
	colBufs []bytes.Buffer
	colIdx  []colIndex
	blocks  []blockInfo

	parts    []partInfo
	rows     int64
	min, max int64
	closed   bool
}

// Create opens a new store writer at dir, creating the directory. The
// directory must not already contain a store.
func Create(dir string, kind trace.Kind, opt Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("store: %s already contains a store", dir)
	}
	cols := columnsFor(kind)
	w := &Writer{
		dir:  dir,
		kind: kind,
		cols: cols,
		opt:  opt.withDefaults(),
	}
	w.block = make([][]int64, len(cols))
	for i := range w.block {
		w.block[i] = make([]int64, 0, w.opt.BlockRows)
	}
	w.colBufs = make([]bytes.Buffer, len(cols))
	w.resetPartition()
	return w, nil
}

func (w *Writer) resetPartition() {
	for i := range w.colBufs {
		w.colBufs[i].Reset()
	}
	w.colIdx = make([]colIndex, len(w.cols))
	w.blocks = nil
}

// AppendFlow appends one flow record; the store must be a netflow store.
func (w *Writer) AppendFlow(r trace.FlowRecord) error {
	if w.kind != trace.KindNetFlow {
		return fmt.Errorf("%w: cannot append flow record to %s store", ErrWrongKind, w.kind)
	}
	w.row = flowRow(r, w.row)
	return w.appendRow(w.row)
}

// AppendPacket appends one packet record; the store must be a pcap store.
func (w *Writer) AppendPacket(p trace.Packet) error {
	if w.kind != trace.KindPCAP {
		return fmt.Errorf("%w: cannot append packet to %s store", ErrWrongKind, w.kind)
	}
	w.row = packetRow(p, w.row)
	return w.appendRow(w.row)
}

func (w *Writer) appendRow(row []int64) error {
	if w.closed {
		return fmt.Errorf("store: append to closed writer")
	}
	for i, v := range row {
		w.block[i] = append(w.block[i], v)
	}
	if len(w.block[0]) >= w.opt.BlockRows {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	return nil
}

// flushBlock encodes the buffered block into every column's partition
// buffer and flushes the partition when it reaches PartitionRows.
func (w *Writer) flushBlock() error {
	n := len(w.block[0])
	if n == 0 {
		return nil
	}
	times := w.block[0]
	bi := blockInfo{Rows: n, MinTime: times[0], MaxTime: times[0]}
	for _, t := range times {
		if t < bi.MinTime {
			bi.MinTime = t
		}
		if t > bi.MaxTime {
			bi.MaxTime = t
		}
	}
	for i := range w.cols {
		frame := container.Encode(container.KindColumnBlock, encodeBlock(w.block[i]))
		w.colIdx[i].Offsets = append(w.colIdx[i].Offsets, int64(w.colBufs[i].Len()))
		w.colIdx[i].Sizes = append(w.colIdx[i].Sizes, int64(len(frame)))
		w.colBufs[i].Write(frame)
		w.block[i] = w.block[i][:0]
	}
	w.blocks = append(w.blocks, bi)
	partRows := 0
	for _, b := range w.blocks {
		partRows += b.Rows
	}
	if partRows >= w.opt.PartitionRows {
		return w.flushPartition()
	}
	return nil
}

// flushPartition writes the buffered partition to disk: every column
// file first (atomic, fsynced), then the partition manifest, so a crash
// can never leave part.json pointing at missing column bytes.
func (w *Writer) flushPartition() error {
	if len(w.blocks) == 0 {
		return nil
	}
	name := fmt.Sprintf("p%05d", len(w.parts))
	pdir := filepath.Join(w.dir, name)
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		return fmt.Errorf("store: create partition %s: %w", pdir, err)
	}
	pm := partManifest{
		MinTime: w.blocks[0].MinTime,
		MaxTime: w.blocks[0].MaxTime,
		Blocks:  w.blocks,
		Columns: make(map[string]colIndex, len(w.cols)),
	}
	for _, b := range w.blocks {
		pm.Rows += int64(b.Rows)
		if b.MinTime < pm.MinTime {
			pm.MinTime = b.MinTime
		}
		if b.MaxTime > pm.MaxTime {
			pm.MaxTime = b.MaxTime
		}
	}
	for i, c := range w.cols {
		pm.Columns[c] = w.colIdx[i]
		path := filepath.Join(pdir, c+colExt)
		if err := container.AtomicWrite(container.OSFS{}, path, w.colBufs[i].Bytes()); err != nil {
			return fmt.Errorf("store: write column %s: %w", path, err)
		}
	}
	doc, err := json.MarshalIndent(pm, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal part manifest: %w", err)
	}
	if err := container.AtomicWrite(container.OSFS{}, filepath.Join(pdir, PartManifestName), doc); err != nil {
		return fmt.Errorf("store: write part manifest: %w", err)
	}
	w.parts = append(w.parts, partInfo{Name: name, Rows: pm.Rows, MinTime: pm.MinTime, MaxTime: pm.MaxTime})
	if w.rows == 0 {
		w.min, w.max = pm.MinTime, pm.MaxTime
	} else {
		if pm.MinTime < w.min {
			w.min = pm.MinTime
		}
		if pm.MaxTime > w.max {
			w.max = pm.MaxTime
		}
	}
	w.rows += pm.Rows
	w.resetPartition()
	return nil
}

// Rows returns the number of rows appended so far.
func (w *Writer) Rows() int64 {
	n := w.rows + int64(len(w.block[0]))
	for _, b := range w.blocks {
		n += int64(b.Rows)
	}
	return n
}

// Close flushes buffered rows and writes the top-level manifest, the
// commit point that makes dir a valid store. The writer is unusable
// afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flushBlock(); err != nil {
		return err
	}
	if err := w.flushPartition(); err != nil {
		return err
	}
	m := manifest{
		Version:    Version,
		Kind:       w.kind.String(),
		BlockRows:  w.opt.BlockRows,
		Rows:       w.rows,
		MinTime:    w.min,
		MaxTime:    w.max,
		Columns:    w.cols,
		Partitions: w.parts,
	}
	doc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal manifest: %w", err)
	}
	if err := container.AtomicWrite(container.OSFS{}, filepath.Join(w.dir, ManifestName), doc); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	return nil
}

// Write writes a whole trace — an in-memory trace or another store — as
// a store at dir and returns its row count. Once Create has succeeded, a
// failure removes the partially written directory.
func Write(dir string, src trace.Source, opt Options) (int64, error) {
	w, err := Create(dir, src.Kind(), opt)
	if err != nil {
		return 0, err
	}
	if src.Kind() == trace.KindNetFlow {
		err = src.ScanFlows(w.AppendFlow)
	} else {
		err = src.ScanPackets(w.AppendPacket)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		os.RemoveAll(dir)
		return 0, err
	}
	return w.Rows(), nil
}
