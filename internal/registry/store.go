package registry

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/container"
	"repro/internal/store"
	"repro/internal/trace"
)

// Columnar store payloads (DESIGN.md §13). A job's synthetic trace is
// persisted as a block-compressed store directory at jobs/<id>.store/:
// queryable in place and streamed into any download format. The crash
// discipline extends to directories: the store is built under
// jobs/<id>.store.tmp, validated, renamed into place, and only then is
// the job manifest written — so a manifest never points at a missing or
// half-built store, and a crash leaves only a .tmp directory for Sweep.
const storeExt = ".store"

// storePath returns the job's store-directory payload path.
func (r *Registry) storePath(id string) string {
	return filepath.Join(r.dir, jobsDir, id+storeExt)
}

// PutJobStore stores a terminal job record with a columnar-store trace
// payload. build receives a fresh staging directory and must write a
// complete store into it (e.g. store.WriteFlowTrace); the store is
// opened and validated before it is committed. The record's trace
// fields (kind, size, rows) are filled from the built store.
func (r *Registry) PutJobStore(rec JobRecord, build func(dir string) error) error {
	if err := validName(rec.ID); err != nil {
		return err
	}
	rec.SavedAt = r.now().UTC().Format(time.RFC3339)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.commitStore(rec, build); err != nil {
		return err
	}
	telJobsSaved.Inc()
	return nil
}

// commitStore builds rec's store in staging, validates it, renames it
// into place and then writes the manifest. The caller holds r.mu.
func (r *Registry) commitStore(rec JobRecord, build func(dir string) error) error {
	final := r.storePath(rec.ID)
	staging := final + ".tmp"
	if err := os.RemoveAll(staging); err != nil {
		return fmt.Errorf("registry: clear staging for job %q: %w", rec.ID, err)
	}
	if err := build(staging); err != nil {
		os.RemoveAll(staging)
		return fmt.Errorf("registry: build store for job %q: %w", rec.ID, err)
	}
	s, err := store.Open(staging)
	if err != nil {
		os.RemoveAll(staging)
		return fmt.Errorf("registry: refusing to store invalid trace store for job %q: %w", rec.ID, err)
	}
	size, err := s.DiskSize()
	if err != nil {
		os.RemoveAll(staging)
		return fmt.Errorf("registry: size store for job %q: %w", rec.ID, err)
	}
	rec.TraceStore = true
	rec.TraceKind = s.Kind().String()
	rec.TraceSize = size
	rec.TraceRows = s.Rows()
	rec.TraceChecksum = 0 // every block carries its own container CRC

	if err := os.RemoveAll(final); err != nil {
		return fmt.Errorf("registry: replace store for job %q: %w", rec.ID, err)
	}
	if err := os.Rename(staging, final); err != nil {
		os.RemoveAll(staging)
		return fmt.Errorf("registry: commit store for job %q: %w", rec.ID, err)
	}
	if err := syncDir(filepath.Dir(final)); err != nil {
		return fmt.Errorf("registry: sync jobs dir: %w", err)
	}
	return r.writeManifest(r.jobManifestPath(rec.ID), rec)
}

// OpenStore opens a job's columnar trace store. Jobs without a trace
// (failed jobs) return an error.
func (r *Registry) OpenStore(id string) (*store.Store, error) {
	if err := validName(id); err != nil {
		return nil, err
	}
	var rec JobRecord
	if err := r.readManifest(r.jobManifestPath(id), &rec); err != nil {
		return nil, err
	}
	if !rec.TraceStore {
		return nil, fmt.Errorf("registry: job %q has no store payload", id)
	}
	s, err := store.Open(r.storePath(id))
	if err != nil {
		telCorrupt.Inc()
		return nil, fmt.Errorf("registry: store for job %q: %w", id, err)
	}
	if got := s.Kind().String(); got != rec.TraceKind {
		telCorrupt.Inc()
		return nil, fmt.Errorf("registry: store for job %q holds %s, manifest says %s: %w",
			id, got, rec.TraceKind, store.ErrWrongKind)
	}
	return s, nil
}

// migrateTrace converts job id's legacy flat payload (container-framed
// trace CSV at jobs/<id>.trace) into a columnar store, once: the payload
// is CRC-checked against the manifest and parsed, the store is built in
// staging and renamed into place, the manifest is flipped to it, and
// only then is the .trace file deleted. A crash before the flip leaves
// the legacy manifest and payload, so the next Sweep migrates again; a
// crash after it leaves a stale .trace, deleted here. A payload that
// fails its CRC or does not parse, or an unreadable manifest, returns an
// error wrapping container.ErrCorrupt. The caller holds r.mu.
func (r *Registry) migrateTrace(id string) error {
	path := r.legacyTracePath(id)
	var rec JobRecord
	if err := r.readManifest(r.jobManifestPath(id), &rec); err != nil {
		return fmt.Errorf("%v: %w", err, container.ErrCorrupt)
	}
	if !rec.TraceStore {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("registry: legacy trace for job %q: %w", id, err)
		}
		build, err := legacyStoreBuilder(rec, data)
		if err != nil {
			return fmt.Errorf("registry: legacy trace for job %q: %v: %w", id, err, container.ErrCorrupt)
		}
		if err := r.commitStore(rec, build); err != nil {
			return err
		}
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("registry: remove migrated trace for job %q: %w", id, err)
	}
	return nil
}

// legacyStoreBuilder validates a legacy framed-CSV payload against its
// manifest and returns a PutJobStore build function for its trace.
func legacyStoreBuilder(rec JobRecord, framed []byte) (func(dir string) error, error) {
	payload, err := container.DecodeKind(framed, container.KindTrace)
	if err != nil {
		return nil, err
	}
	if sum := crc32.ChecksumIEEE(payload); sum != rec.TraceChecksum || int64(len(payload)) != rec.TraceSize {
		return nil, fmt.Errorf("payload CRC %08x (%d bytes) does not match manifest %08x (%d bytes)",
			sum, len(payload), rec.TraceChecksum, rec.TraceSize)
	}
	kind, ok := trace.ParseKind(rec.TraceKind)
	if !ok {
		return nil, fmt.Errorf("unknown trace kind %q", rec.TraceKind)
	}
	// Parsed up front, so a payload that does not parse is corrupt
	// rather than a failed store write.
	var src trace.Source
	if kind == trace.KindNetFlow {
		src, err = trace.ReadFlowCSV(bytes.NewReader(payload))
	} else {
		src, err = trace.ReadPacketCSV(bytes.NewReader(payload))
	}
	if err != nil {
		return nil, err
	}
	return func(dir string) error {
		_, err := store.Write(dir, src, store.Options{})
		return err
	}, nil
}

// verifyJobStore deep-verifies a store payload: every block of every
// column is read, CRC-checked, and decoded.
func (r *Registry) verifyJobStore(id string) error {
	s, err := r.OpenStore(id)
	if err != nil {
		return err
	}
	if err := s.Verify(); err != nil {
		telCorrupt.Inc()
		return fmt.Errorf("registry: store for job %q: %w", id, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-committed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
