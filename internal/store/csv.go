package store

import (
	"io"

	"repro/internal/trace"
)

// CSV bridge: a store round-trips to the exact trace CSV layouts, byte
// for byte, so the columnar format can replace CSV persistence without
// disturbing any consumer of the download API.

// WriteCSV streams the whole store to w in the matching trace CSV
// layout. Output is byte-identical to the trace package's whole-trace
// CSV writer over the same records.
func (s *Store) WriteCSV(w io.Writer) error {
	f, err := trace.LookupFormat("csv", s.kind)
	if err != nil {
		return err
	}
	return f.Encode(w, s)
}

// ImportCSV builds a store at dir from trace CSV input of the given
// kind, streaming row by row (the CSV is never fully buffered). Returns
// the number of rows imported.
func ImportCSV(dir string, kind trace.Kind, r io.Reader, opt Options) (int64, error) {
	w, err := Create(dir, kind, opt)
	if err != nil {
		return 0, err
	}
	if kind == trace.KindNetFlow {
		err = trace.ScanFlowCSV(r, w.AppendFlow)
	} else {
		err = trace.ScanPacketCSV(r, w.AppendPacket)
	}
	if err != nil {
		return w.Rows(), err
	}
	if err := w.Close(); err != nil {
		return w.Rows(), err
	}
	return w.Rows(), nil
}
