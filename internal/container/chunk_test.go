package container

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestChunkRecordRoundTrip(t *testing.T) {
	base := ChunkBase(t.TempDir(), 7)
	if filepath.Base(base) != "chunk-0007" {
		t.Fatalf("base name %q", filepath.Base(base))
	}
	for _, payload := range [][]byte{
		[]byte("x"),
		[]byte("chunk weights"),
		bytes.Repeat([]byte{0xff, 0x00}, 1<<10),
	} {
		if err := WriteChunk(OSFS{}, base, payload, ChunkRecord{Worker: "w1", Attempt: 2, Digest: "abc"}); err != nil {
			t.Fatal(err)
		}
		rec, got, err := ReadChunk(base)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read back %d bytes: %v", len(payload), err)
		}
		want := ChunkRecord{Worker: "w1", Attempt: 2, Digest: "abc", Checksum: crc32.ChecksumIEEE(payload), Size: len(payload)}
		if rec != want {
			t.Fatalf("record %+v, want %+v", rec, want)
		}
	}
	if err := WriteChunk(OSFS{}, base, nil, ChunkRecord{}); err == nil {
		t.Fatal("an empty payload must be rejected")
	}
}

// TestChunkBaseNames: record names sort in chunk order, never collide
// across four-digit indices and never escape their directory.
func TestChunkBaseNames(t *testing.T) {
	dir := t.TempDir()
	if got := filepath.Base(ChunkBase(dir, 3)) + ".ckpt"; got != "chunk-0003.ckpt" {
		t.Fatalf("chunk 3 payload name %q", got)
	}
	seen := map[string]bool{}
	prev := ""
	for i := 0; i < 100; i++ {
		base := ChunkBase(dir, i)
		if filepath.Dir(base) != filepath.Clean(dir) {
			t.Fatalf("chunk %d record %q escapes %q", i, base, dir)
		}
		if seen[base] {
			t.Fatalf("duplicate chunk record name %q", base)
		}
		if base <= prev {
			t.Fatalf("chunk %d name %q does not sort after %q", i, base, prev)
		}
		seen[base], prev = true, base
	}
}

// TestWriteChunkReplacesExisting: rewriting a chunk (a retrain after a
// corrupt payload) replaces both files and leaves no temp file behind.
func TestWriteChunkReplacesExisting(t *testing.T) {
	base := ChunkBase(t.TempDir(), 2)
	for _, p := range []string{"v1", "v2"} {
		if err := WriteChunk(OSFS{}, base, []byte(p), ChunkRecord{Digest: p}); err != nil {
			t.Fatal(err)
		}
	}
	rec, got, err := ReadChunk(base)
	if err != nil || string(got) != "v2" || rec.Digest != "v2" {
		t.Fatalf("read back %q (%+v), %v; want v2", got, rec, err)
	}
	for _, ext := range []string{".ckpt.tmp", ".done.tmp"} {
		if _, err := os.Stat(base + ext); !os.IsNotExist(err) {
			t.Fatalf("%s lingers after a successful write: %v", ext, err)
		}
	}
}

// TestWriteChunkTornWriteLeavesNoFinalFile: a payload write that fails
// leaves neither the payload nor the done record under its final name.
func TestWriteChunkTornWriteLeavesNoFinalFile(t *testing.T) {
	base := ChunkBase(t.TempDir(), 0)
	if err := WriteChunk(failWriteFS{match: ".ckpt"}, base, []byte("doomed"), ChunkRecord{}); err == nil {
		t.Fatal("want injected write failure")
	}
	for _, ext := range []string{".ckpt", ".done"} {
		if _, err := os.Stat(base + ext); !os.IsNotExist(err) {
			t.Fatalf("%s exists after a torn write: %v", ext, err)
		}
	}
}

// TestReadChunkDetectsTruncation: a payload file cut at any length, or
// with a trailing byte, fails verification against its done record.
func TestReadChunkDetectsTruncation(t *testing.T) {
	base := ChunkBase(t.TempDir(), 4)
	if err := WriteChunk(OSFS{}, base, []byte("payload payload payload"), ChunkRecord{}); err != nil {
		t.Fatal(err)
	}
	framed, err := os.ReadFile(base + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{append(append([]byte(nil), framed...), 0x00)}
	for n := 0; n < len(framed); n++ {
		bad = append(bad, framed[:n])
	}
	for _, b := range bad {
		if err := os.WriteFile(base+".ckpt", b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadChunk(base); err == nil {
			t.Fatalf("payload of %d/%d bytes went undetected", len(b), len(framed))
		}
	}
}

// TestReadChunkFailures: a missing or garbled done record yields the zero
// record; a done record whose payload is missing or corrupt is returned
// with the payload error, so callers can inspect it before retraining.
func TestReadChunkFailures(t *testing.T) {
	dir := t.TempDir()
	base := ChunkBase(dir, 0)
	if rec, _, err := ReadChunk(base); !errors.Is(err, fs.ErrNotExist) || rec != (ChunkRecord{}) {
		t.Fatalf("no record: %+v, %v", rec, err)
	}
	if err := WriteChunk(OSFS{}, base, []byte("payload"), ChunkRecord{Digest: "d"}); err != nil {
		t.Fatal(err)
	}
	framed, err := os.ReadFile(base + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	framed[len(framed)-1] ^= 0x01
	if err := os.WriteFile(base+".ckpt", framed, 0o644); err != nil {
		t.Fatal(err)
	}
	if rec, _, err := ReadChunk(base); !errors.Is(err, ErrCorrupt) || rec.Digest != "d" {
		t.Fatalf("bit flip: %+v, %v", rec, err)
	}
	if err := os.Remove(base + ".ckpt"); err != nil {
		t.Fatal(err)
	}
	if rec, _, err := ReadChunk(base); !errors.Is(err, fs.ErrNotExist) || rec.Digest != "d" {
		t.Fatalf("missing payload: %+v, %v", rec, err)
	}
	if err := os.WriteFile(base+".done", []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rec, _, err := ReadChunk(base); err == nil || rec != (ChunkRecord{}) {
		t.Fatalf("garbled record: %+v, %v", rec, err)
	}
}

// failWriteFS fails writes whose temp-file name contains match.
type failWriteFS struct {
	OSFS
	match string
}

func (f failWriteFS) WriteFile(name string, data []byte) error {
	if strings.Contains(name, f.match) {
		return errors.New("injected write failure")
	}
	return f.OSFS.WriteFile(name, data)
}

// TestWriteChunkPayloadFirst: the done record is written only after the
// payload, so a failed write never leaves a done record without its
// payload.
func TestWriteChunkPayloadFirst(t *testing.T) {
	base := ChunkBase(t.TempDir(), 1)
	if err := WriteChunk(failWriteFS{match: ".ckpt"}, base, []byte("p"), ChunkRecord{}); err == nil {
		t.Fatal("payload write failure must surface")
	}
	if _, err := os.Stat(base + ".done"); !os.IsNotExist(err) {
		t.Fatalf("done record written without its payload: %v", err)
	}
	if err := WriteChunk(failWriteFS{match: ".done"}, base, []byte("p"), ChunkRecord{}); err == nil {
		t.Fatal("done write failure must surface")
	}
	if _, _, err := ReadChunk(base); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a chunk without a done record must read as absent: %v", err)
	}
}

// FuzzChunkRecord drives the chunk-record reader with arbitrary done
// records and payload frames: it must return an error or a payload that
// matches the record's size and CRC — never panic — and the accepted
// payload must be exactly the frame's payload bytes.
func FuzzChunkRecord(f *testing.F) {
	payload := []byte("seed payload")
	done := []byte(fmt.Sprintf(`{"worker":"w","attempt":1,"digest":"d","crc32":%d,"size":%d}`,
		crc32.ChecksumIEEE(payload), len(payload)))
	framed := Encode(KindCheckpoint, payload)
	f.Add(done, framed)
	f.Add([]byte{}, []byte{})
	f.Add([]byte(`{"size":0}`), framed)
	f.Add(done, framed[:len(framed)-3])
	f.Add(done, Encode(KindFlowModel, payload))
	flipped := append([]byte(nil), framed...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(done, flipped)
	f.Add([]byte(`{"crc32":1,"size":12}`), framed)

	f.Fuzz(func(t *testing.T, done, framed []byte) {
		rec, err := parseChunkRecord(done)
		if err != nil {
			return
		}
		got, err := rec.verify(framed)
		if err != nil {
			return
		}
		if len(got) != rec.Size || crc32.ChecksumIEEE(got) != rec.Checksum {
			t.Fatalf("accepted a payload that does not match its record")
		}
		if !bytes.Equal(got, framed[HeaderLen:]) {
			t.Fatalf("accepted payload is not the frame's payload")
		}
	})
}
