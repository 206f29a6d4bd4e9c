// Package container defines the durable on-disk format for trained
// NetShare models and the atomic-write discipline every persistence
// layer in the repo shares (DESIGN.md §10).
//
// A container is a self-describing frame around an opaque payload:
//
//	offset  size  field
//	0       8     magic "NSMODEL\n"
//	8       2     format version (little-endian uint16)
//	10      1     payload kind (flow / packet / checkpoint / column block)
//	11      1     reserved (must be zero)
//	12      4     payload length (little-endian uint32)
//	16      4     CRC-32 (IEEE) of the payload
//	20      n     payload
//
// The magic catches wrong-file mistakes before any decoder runs, the
// version gates forward compatibility, the kind tag stops a packet model
// from being loaded where a flow model is expected, and the CRC turns
// truncation and bit rot into typed errors instead of opaque gob
// failures or silently corrupted weights. Decode never panics on
// untrusted bytes.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Kind tags the payload a container carries.
type Kind uint8

// Payload kinds. The zero value is invalid so an all-zero header can
// never masquerade as a valid container.
const (
	KindInvalid    Kind = 0
	KindFlowModel  Kind = 1
	KindPacketMdl  Kind = 2
	KindCheckpoint Kind = 3
	// 4 is retired: it framed the flat-CSV job traces the registry kept
	// before the columnar store. It stays in the valid range, so such a
	// frame still decodes. Never reuse it.
	// 5 and 6 are retired: they framed the stored float32 snapshots
	// ("flow-fast" / "packet-fast"), which are now only built in memory
	// from a float64 model. They stay in the valid range, so such a frame
	// still decodes and a registry keeps (but cannot serve) it. Never
	// reuse them.

	// KindColumnBlock frames one compressed column block of the columnar
	// trace store (internal/store, DESIGN.md §13): an encoding tag plus
	// the encoded values of one column over one fixed-row-count block.
	KindColumnBlock Kind = 7
)

func (k Kind) String() string {
	switch k {
	case KindFlowModel:
		return "flow-model"
	case KindPacketMdl:
		return "packet-model"
	case KindCheckpoint:
		return "checkpoint"
	case KindColumnBlock:
		return "column-block"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

func (k Kind) valid() bool { return k >= KindFlowModel && k <= KindColumnBlock }

// Version is the current container format version. Loaders accept any
// version up to this one and reject newer ones with ErrFutureVersion.
//
// Version history:
//
//	1 — initial frame format.
//	2 — model payloads may carry scenario-label conditioning (dgan label
//	    weights); version-1 unconditional containers remain decodable.
const Version = 2

// Magic identifies a container file; it is ASCII so `head -c8` on a
// model file is self-explanatory.
var Magic = [8]byte{'N', 'S', 'M', 'O', 'D', 'E', 'L', '\n'}

// HeaderLen is the fixed frame size preceding the payload.
const HeaderLen = 20

// Typed decode failures, matchable with errors.Is.
var (
	// ErrTruncated marks input shorter than its header or declared payload.
	ErrTruncated = errors.New("container: truncated")
	// ErrBadMagic marks input that is not a container at all.
	ErrBadMagic = errors.New("container: bad magic")
	// ErrFutureVersion marks a container written by a newer format version.
	ErrFutureVersion = errors.New("container: future format version")
	// ErrCorrupt marks a frame whose length or CRC does not match its payload.
	ErrCorrupt = errors.New("container: corrupt frame")
	// ErrWrongKind marks a valid container of an unexpected payload kind.
	ErrWrongKind = errors.New("container: wrong payload kind")
)

// Encode frames payload as a current-version container of the given kind.
func Encode(kind Kind, payload []byte) []byte {
	out := make([]byte, HeaderLen+len(payload))
	copy(out, Magic[:])
	binary.LittleEndian.PutUint16(out[8:], Version)
	out[10] = byte(kind)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[16:], crc32.ChecksumIEEE(payload))
	copy(out[HeaderLen:], payload)
	return out
}

// Decode validates a container frame and returns its kind and payload.
// All failures are typed (ErrTruncated, ErrBadMagic, ErrFutureVersion,
// ErrCorrupt); untrusted bytes can never cause a panic. The returned
// payload aliases data.
func Decode(data []byte) (Kind, []byte, error) {
	kind, n, err := ParseHeader(data)
	if err != nil {
		return KindInvalid, nil, err
	}
	if int64(n) != int64(len(data)-HeaderLen) {
		return KindInvalid, nil, fmt.Errorf("%w: declared %d payload bytes, have %d", ErrCorrupt, n, len(data)-HeaderLen)
	}
	payload := data[HeaderLen:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[16:]); got != want {
		return KindInvalid, nil, fmt.Errorf("%w: CRC %08x != %08x", ErrCorrupt, got, want)
	}
	return kind, payload, nil
}

// ParseHeader validates a frame header without its payload and returns
// the kind and declared payload length. Streaming readers use it to
// check magic/version/kind in O(1) before copying the payload through;
// it cannot verify the CRC (that needs the payload — use Decode).
func ParseHeader(header []byte) (Kind, uint32, error) {
	if len(header) < HeaderLen {
		return KindInvalid, 0, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(header), HeaderLen)
	}
	var magic [8]byte
	copy(magic[:], header)
	if magic != Magic {
		return KindInvalid, 0, fmt.Errorf("%w: %q", ErrBadMagic, magic[:])
	}
	if v := binary.LittleEndian.Uint16(header[8:]); v > Version {
		return KindInvalid, 0, fmt.Errorf("%w: %d (this build reads <= %d)", ErrFutureVersion, v, Version)
	}
	kind := Kind(header[10])
	if !kind.valid() || header[11] != 0 {
		return KindInvalid, 0, fmt.Errorf("%w: invalid kind byte %d or nonzero reserved byte", ErrCorrupt, header[10])
	}
	return kind, binary.LittleEndian.Uint32(header[12:]), nil
}

// DecodeKind is Decode plus a kind check: a frame of any other kind
// returns ErrWrongKind.
func DecodeKind(data []byte, want Kind) ([]byte, error) {
	kind, payload, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if kind != want {
		return nil, fmt.Errorf("%w: got %s, want %s", ErrWrongKind, kind, want)
	}
	return payload, nil
}

// FS is the minimal filesystem surface AtomicWrite and WriteChunk need;
// tests substitute fault-injecting implementations.
type FS interface {
	WriteFile(name string, data []byte) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// AtomicWrite writes data under a temporary sibling name and renames it
// into place, so readers never observe a partially written file under
// the final name. A failed write leaves at most a stray .tmp file.
func AtomicWrite(fs FS, path string, data []byte) error {
	tmp := path + ".tmp"
	if err := fs.WriteFile(tmp, data); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return nil
}

// OSFS implements FS on the real filesystem with durability: WriteFile
// fsyncs the file before closing, and Rename fsyncs the parent
// directory afterwards, so a crash immediately after AtomicWrite cannot
// lose the rename (the crash-safety half of the atomic-write contract;
// the temp-file rename provides the no-torn-reads half).
type OSFS struct{}

// WriteFile writes data and fsyncs before close.
func (OSFS) WriteFile(name string, data []byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Rename renames and then fsyncs the destination's parent directory
// (best effort: some filesystems refuse directory fsync).
func (OSFS) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(newpath)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Remove removes a file.
func (OSFS) Remove(name string) error { return os.Remove(name) }
