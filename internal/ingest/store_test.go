package ingest

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
)

// TestWriteStoresRoundTrip ingests a capture and writes both store
// kinds: reading them back must reproduce exactly what FlowTrace and
// PacketTrace return.
func TestWriteStoresRoundTrip(t *testing.T) {
	orig := samplePackets()
	var buf bytes.Buffer
	if err := trace.WritePCAP(&buf, orig); err != nil {
		t.Fatal(err)
	}
	a := New(Config{})
	if err := a.IngestBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	a.Flush()

	flowDir := filepath.Join(t.TempDir(), "flows.store")
	rows, err := a.WriteFlowStore(flowDir, store.Options{BlockRows: 2, PartitionRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := a.FlowTrace()
	if rows != int64(len(want.Records)) {
		t.Fatalf("wrote %d rows, assembler has %d records", rows, len(want.Records))
	}
	s, err := store.Open(flowDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.FlowRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("read back %d records, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, got.Records[i], want.Records[i])
		}
	}

	pktDir := filepath.Join(t.TempDir(), "packets.store")
	rows, err = a.WritePacketStore(pktDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows != int64(len(orig.Packets)) {
		t.Fatalf("wrote %d packet rows, want %d", rows, len(orig.Packets))
	}
	ps, err := store.Open(pktDir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ps.PacketRecords()
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Packets {
		if back.Packets[i] != orig.Packets[i] {
			t.Fatalf("packet %d: %+v != %+v", i, back.Packets[i], orig.Packets[i])
		}
	}
}

// TestWriteStoreEmptyAssembler: an assembler with nothing ingested
// refuses to write a store rather than committing an empty directory.
func TestWriteStoreEmptyAssembler(t *testing.T) {
	a := New(Config{})
	dir := filepath.Join(t.TempDir(), "empty.store")
	if _, err := a.WriteFlowStore(dir, store.Options{}); err == nil {
		t.Fatal("WriteFlowStore accepted an empty assembler")
	}
	if _, err := a.WritePacketStore(dir, store.Options{}); err == nil {
		t.Fatal("WritePacketStore accepted an empty assembler")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("refused write left a store directory behind")
	}
}
