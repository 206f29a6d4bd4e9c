package ingest

import (
	"fmt"

	"repro/internal/store"
)

// Columnar export (DESIGN.md §13): the assembled flows stream straight
// into a block-compressed trace store, so a long capture session lands
// on disk queryable and ~5× smaller than CSV without materializing an
// intermediate file. Call Flush first to include still-live flows.

// WriteFlowStore appends the emitted IPv4 flow records, in canonical
// order, into a netflow trace store at dir and returns the row count.
// A partially written directory is removed on error.
func (a *Assembler) WriteFlowStore(dir string, opt store.Options) (int64, error) {
	t := a.FlowTrace()
	if len(t.Records) == 0 {
		return 0, fmt.Errorf("ingest: no IPv4 flow records to store")
	}
	return store.Write(dir, t, opt)
}

// WritePacketStore appends the assembled time-sorted IPv4 packets into
// a pcap trace store at dir and returns the row count.
func (a *Assembler) WritePacketStore(dir string, opt store.Options) (int64, error) {
	t := a.PacketTrace()
	if len(t.Packets) == 0 {
		return 0, fmt.Errorf("ingest: no IPv4 packets to store")
	}
	return store.Write(dir, t, opt)
}
