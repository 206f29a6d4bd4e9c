package container

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// A chunk record makes one trained chunk model durable. It is the one
// on-disk format for both training executors: the cluster queue's
// per-job directories and a local run's checkpoint directory. Each
// chunk is two files sharing a base name (ChunkBase):
//
//	chunk-NNNN.ckpt  the model payload, framed as KindCheckpoint
//	chunk-NNNN.done  JSON ChunkRecord, written after the payload
//
// The payload is durable before its done record exists, so a reader
// that finds a done record can read the payload; a crash between the
// two writes leaves a stray payload that retraining overwrites with
// identical bytes. The record's size and CRC-32 cross-check the payload.

// ChunkRecord is a chunk's done record.
type ChunkRecord struct {
	// Worker and Attempt name the cluster lease that trained the chunk.
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	// Digest identifies the training plan (configuration, seed and
	// encoded input) of a local run, so a resume cannot load chunks
	// trained on other data.
	Digest   string `json:"digest,omitempty"`
	Checksum uint32 `json:"crc32"`
	Size     int    `json:"size"`
}

// ChunkBase returns the base path of chunk idx's record files in dir.
func ChunkBase(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("chunk-%04d", idx))
}

// WriteChunk makes payload durable under base: the framed payload first,
// then rec (with Checksum and Size filled in) as the done record.
func WriteChunk(fs FS, base string, payload []byte, rec ChunkRecord) error {
	if len(payload) == 0 {
		return fmt.Errorf("container: empty chunk payload")
	}
	if err := AtomicWrite(fs, base+".ckpt", Encode(KindCheckpoint, payload)); err != nil {
		return err
	}
	rec.Checksum, rec.Size = crc32.ChecksumIEEE(payload), len(payload)
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return AtomicWrite(fs, base+".done", append(b, '\n'))
}

// ReadChunk reads the chunk record under base and returns it with its
// verified payload. The record is returned whenever the done record
// parses, even if the payload then fails verification, so a caller can
// inspect it before deciding to retrain; a missing or unparsable done
// record returns the zero ChunkRecord.
func ReadChunk(base string) (ChunkRecord, []byte, error) {
	done, err := os.ReadFile(base + ".done")
	if err != nil {
		return ChunkRecord{}, nil, err
	}
	rec, err := parseChunkRecord(done)
	if err != nil {
		return ChunkRecord{}, nil, err
	}
	framed, err := os.ReadFile(base + ".ckpt")
	if err != nil {
		return rec, nil, err
	}
	payload, err := rec.verify(framed)
	return rec, payload, err
}

func parseChunkRecord(done []byte) (ChunkRecord, error) {
	var rec ChunkRecord
	if err := json.Unmarshal(done, &rec); err != nil {
		return ChunkRecord{}, fmt.Errorf("container: chunk done record: %w", err)
	}
	if rec.Size <= 0 {
		return ChunkRecord{}, fmt.Errorf("container: chunk done record has size %d", rec.Size)
	}
	return rec, nil
}

// verify decodes a framed chunk payload and checks it against the record.
func (rec ChunkRecord) verify(framed []byte) ([]byte, error) {
	payload, err := DecodeKind(framed, KindCheckpoint)
	if err != nil {
		return nil, fmt.Errorf("container: chunk payload: %w", err)
	}
	if len(payload) != rec.Size || crc32.ChecksumIEEE(payload) != rec.Checksum {
		return nil, fmt.Errorf("%w: chunk payload does not match its done record", ErrCorrupt)
	}
	return payload, nil
}
