package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/store"
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
// complete store into it (e.g. with store.Write); the store is opened
// and validated, renamed into place, and only then is the manifest
// written. The record's trace fields (kind, size, rows) are filled from
// the built store.
func (r *Registry) PutJobStore(rec JobRecord, build func(dir string) error) error {
	if err := validName(rec.ID); err != nil {
		return err
	}
	rec.SavedAt = r.now().UTC().Format(time.RFC3339)
	r.mu.Lock()
	defer r.mu.Unlock()
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
	rec.TraceKind = s.Kind().String()
	rec.TraceSize = size
	rec.TraceRows = s.Rows()

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
	if err := r.writeManifest(r.jobManifestPath(rec.ID), rec); err != nil {
		return err
	}
	telJobsSaved.Inc()
	return nil
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
	if rec.TraceKind == "" {
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

// verifyJobStore deep-verifies a store payload: every block of every
// column is read, CRC-checked, and decoded. A missing store directory
// (a lost payload, or a job written before the columnar store) fails
// with os.ErrNotExist rather than as corruption.
func (r *Registry) verifyJobStore(id string) error {
	if _, err := os.Stat(r.storePath(id)); err != nil {
		return fmt.Errorf("registry: store for job %q: %w", id, err)
	}
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
