package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	// 4, 5 and 6 are retired kinds: their old frames must still decode.
	for _, kind := range []Kind{KindFlowModel, KindPacketMdl, KindCheckpoint, 4, 5, 6, KindColumnBlock} {
		data := Encode(kind, payload)
		gotKind, gotPayload, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if gotKind != kind || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("%s: round trip mismatch", kind)
		}
		if _, err := DecodeKind(data, kind); err != nil {
			t.Fatalf("%s: DecodeKind: %v", kind, err)
		}
	}
}

func TestEmptyPayload(t *testing.T) {
	data := Encode(KindColumnBlock, nil)
	kind, payload, err := Decode(data)
	if err != nil || kind != KindColumnBlock || len(payload) != 0 {
		t.Fatalf("empty payload: kind=%v len=%d err=%v", kind, len(payload), err)
	}
}

// TestCorruptionMatrix covers every class of damaged input the loader
// must turn into a typed error — never a panic, never garbage data.
func TestCorruptionMatrix(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 64)
	good := Encode(KindFlowModel, payload)

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"truncated-header", func(b []byte) []byte { return b[:HeaderLen-1] }, ErrTruncated},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-7] }, ErrCorrupt},
		{"extra-bytes", func(b []byte) []byte { return append(b, 0, 0, 0) }, ErrCorrupt},
		{"wrong-magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"gob-not-container", func(b []byte) []byte { return []byte("\x1f\x8bgobgobgobgobgobgobgob") }, ErrBadMagic},
		{"future-version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[8:], Version+1)
			return b
		}, ErrFutureVersion},
		{"invalid-kind", func(b []byte) []byte { b[10] = 200; return b }, ErrCorrupt},
		{"zero-kind", func(b []byte) []byte { b[10] = 0; return b }, ErrCorrupt},
		{"reserved-nonzero", func(b []byte) []byte { b[11] = 1; return b }, ErrCorrupt},
		{"length-lies-short", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], uint32(len(payload)-1))
			return b
		}, ErrCorrupt},
		{"length-lies-long", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], uint32(len(payload)+1))
			return b
		}, ErrCorrupt},
		{"crc-stored-flipped", func(b []byte) []byte { b[16] ^= 0xFF; return b }, ErrCorrupt},
		{"payload-bit-flip", func(b []byte) []byte { b[HeaderLen+5] ^= 0x01; return b }, ErrCorrupt},
		{"payload-last-byte-flip", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), good...))
			_, _, err := Decode(data)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestDecodeKindRejectsWrongKind(t *testing.T) {
	data := Encode(KindPacketMdl, []byte("packet weights"))
	_, err := DecodeKind(data, KindFlowModel)
	if !errors.Is(err, ErrWrongKind) {
		t.Fatalf("got %v, want ErrWrongKind", err)
	}
	// Corruption takes precedence over kind: a corrupt frame must not be
	// reported as merely the wrong kind.
	data[HeaderLen] ^= 1
	if _, err := DecodeKind(data, KindFlowModel); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame: got %v, want ErrCorrupt", err)
	}
}

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.mdl")
	payload := []byte("weights")
	if err := AtomicWrite(OSFS{}, path, Encode(KindFlowModel, payload)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kind, got, err := Decode(data)
	if err != nil || kind != KindFlowModel || !bytes.Equal(got, payload) {
		t.Fatalf("read back: kind=%v err=%v", kind, err)
	}
	// Overwrite goes through the same temp+rename path and leaves no
	// stray temp file behind.
	if err := AtomicWrite(OSFS{}, path, Encode(KindFlowModel, []byte("weights v2"))); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stray temp file after atomic write: %v", err)
	}
}

// failFS fails the final rename, simulating a full disk at the worst
// moment: AtomicWrite must clean up its temp file and report the error.
type failFS struct {
	OSFS
	failRename bool
}

func (f failFS) Rename(oldpath, newpath string) error {
	if f.failRename {
		return errors.New("injected rename failure")
	}
	return f.OSFS.Rename(oldpath, newpath)
}

func TestAtomicWriteCleansUpOnRenameFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.mdl")
	err := AtomicWrite(failFS{failRename: true}, path, []byte("data"))
	if err == nil {
		t.Fatal("rename failure must surface")
	}
	if _, statErr := os.Stat(path + ".tmp"); !os.IsNotExist(statErr) {
		t.Fatal("temp file must be removed after failed rename")
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatal("final file must not exist after failed rename")
	}
}

// FuzzDecode drives the frame parser with arbitrary bytes: any input
// must yield a valid (kind, payload) or a typed error — never a panic,
// and a successful decode must re-encode to an equivalent frame. Decode
// accepts every version up to Version while Encode always writes Version,
// so the re-encoded frame is compared apart from the version field (bytes
// 8–9; the CRC covers the payload only).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode(KindFlowModel, []byte("seed")))
	f.Add(Encode(KindPacketMdl, nil))
	f.Add(Magic[:])
	f.Add(append(Magic[:], 0xFF, 0xFF, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add([]byte("NSMODEL\n\x01\x00\x02\x00\x04\x00\x00\x00\x06\xe3\x87Dseed")) // a version-1 frame
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := Decode(data)
		if err != nil {
			return
		}
		if !kind.valid() {
			t.Fatalf("decode accepted invalid kind %d", kind)
		}
		round := Encode(kind, payload)
		if len(round) != len(data) || !bytes.Equal(round[:8], data[:8]) || !bytes.Equal(round[10:], data[10:]) {
			t.Fatalf("decode/encode not idempotent")
		}
	})
}
