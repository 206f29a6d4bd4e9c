// Package registry implements the durable model registry behind the
// train-once/serve-many deployment story (paper §2, Fig. 1): a
// disk-backed store of named trained models and terminal job records
// that a restarted service recovers on boot (DESIGN.md §10).
//
// On-disk layout under the registry directory:
//
//	models/<name>.mdl    container-framed synthesizer bytes (internal/container)
//	models/<name>.json   model manifest: kind, payload checksum, size, save time
//	jobs/<id>.json       terminal job manifest, embedding the service's status JSON
//	jobs/<id>.store/     the job's synthetic trace as a columnar store (internal/store)
//
// Every file is written atomically with fsync (container.AtomicWrite +
// container.OSFS), so a crash mid-write can leave a stray *.tmp file but
// never a half-written entry under its final name. Model payloads carry
// their own container CRC, and every store block carries its own.
// Corrupt entries surface as typed errors on read and are reclaimed by
// Sweep, never silently served.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/container"
)

const (
	modelsDir = "models"
	jobsDir   = "jobs"

	modelExt    = ".mdl"
	manifestExt = ".json"
)

// ModelInfo is a stored model's manifest.
type ModelInfo struct {
	Name string `json:"name"`
	// Kind is "flow" or "packet", derived from the container kind tag.
	Kind string `json:"kind"`
	// Checksum is the CRC-32 (IEEE) of the container payload; Size is the
	// full framed file size in bytes.
	Checksum uint32 `json:"checksum"`
	Size     int64  `json:"size"`
	SavedAt  string `json:"savedAt"`
}

// JobRecord is a terminal job's durable manifest. Status is the owning
// service's own status document (webapi.JobStatus for pcapshare); the
// registry stores it opaquely and round-trips it on recovery.
type JobRecord struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Status json.RawMessage `json:"status"`
	// Model names the job's trained model in the model store ("" when the
	// job failed before training finished).
	Model string `json:"model,omitempty"`
	// TraceKind is "netflow" or "pcap" when the job has a trace: a
	// columnar store directory at jobs/<id>.store (see PutJobStore).
	TraceKind string `json:"traceKind,omitempty"`
	// TraceSize is the store's total on-disk size in bytes.
	TraceSize int64  `json:"traceSize,omitempty"`
	TraceRows int64  `json:"traceRows,omitempty"`
	SavedAt   string `json:"savedAt"`
}

// SweepReport summarizes one garbage-collection pass.
type SweepReport struct {
	// Removed lists registry-relative paths deleted: stray temp files,
	// orphaned payloads, and entries whose payload failed validation.
	Removed []string
	// Corrupt counts entries removed because their payload was corrupt
	// (CRC mismatch, bad frame) as opposed to merely orphaned.
	Corrupt int
}

// Registry is a disk-backed store of named models and job records. All
// methods are safe for concurrent use.
type Registry struct {
	dir string
	mu  sync.Mutex
	now func() time.Time // injectable clock for tests
}

// Open creates (if needed) and returns the registry rooted at dir.
func Open(dir string) (*Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("registry: directory must not be empty")
	}
	for _, sub := range []string{dir, filepath.Join(dir, modelsDir), filepath.Join(dir, jobsDir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("registry: create %s: %w", sub, err)
		}
	}
	return &Registry{dir: dir, now: time.Now}, nil
}

// Dir returns the registry's root directory.
func (r *Registry) Dir() string { return r.dir }

// validName rejects names that could escape the registry directory or
// collide with its bookkeeping files.
func validName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("registry: invalid entry name %q", name)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("registry: invalid entry name %q (allowed: letters, digits, '-', '_', '.')", name)
		}
	}
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("registry: entry name %q must not start with '.'", name)
	}
	return nil
}

func kindString(k container.Kind) (string, error) {
	switch k {
	case container.KindFlowModel:
		return "flow", nil
	case container.KindPacketMdl:
		return "packet", nil
	default:
		return "", fmt.Errorf("registry: container kind %s is not a model", k)
	}
}

// PutModel stores container-framed model bytes (the output of a
// synthesizer's Save) under name, overwriting any previous version. The
// frame is validated before anything touches disk.
func (r *Registry) PutModel(name string, framed []byte) (ModelInfo, error) {
	if err := validName(name); err != nil {
		return ModelInfo{}, err
	}
	kind, payload, err := container.Decode(framed)
	if err != nil {
		return ModelInfo{}, fmt.Errorf("registry: refusing to store invalid model %q: %w", name, err)
	}
	ks, err := kindString(kind)
	if err != nil {
		return ModelInfo{}, err
	}
	info := ModelInfo{
		Name:     name,
		Kind:     ks,
		Checksum: crc32.ChecksumIEEE(payload),
		Size:     int64(len(framed)),
		SavedAt:  r.now().UTC().Format(time.RFC3339),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Payload first, manifest second: a crash between the two leaves an
	// orphaned payload (reclaimed by Sweep), never a manifest pointing at
	// missing or stale bytes.
	if err := container.AtomicWrite(container.OSFS{}, r.modelPath(name), framed); err != nil {
		return ModelInfo{}, fmt.Errorf("registry: store model %q: %w", name, err)
	}
	if err := r.writeManifest(r.modelManifestPath(name), info); err != nil {
		return ModelInfo{}, err
	}
	telModelsSaved.Inc()
	return info, nil
}

// ModelBytes returns a stored model's framed bytes after re-validating
// the container CRC and cross-checking the manifest checksum, plus its
// manifest. The bytes feed straight into core.LoadFlowSynthesizer /
// LoadPacketSynthesizer.
func (r *Registry) ModelBytes(name string) ([]byte, ModelInfo, error) {
	info, err := r.Model(name)
	if err != nil {
		return nil, ModelInfo{}, err
	}
	framed, err := os.ReadFile(r.modelPath(name))
	if err != nil {
		return nil, ModelInfo{}, fmt.Errorf("registry: model %q payload: %w", name, err)
	}
	_, payload, err := container.Decode(framed)
	if err != nil {
		telCorrupt.Inc()
		return nil, ModelInfo{}, fmt.Errorf("registry: model %q: %w", name, err)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != info.Checksum {
		telCorrupt.Inc()
		return nil, ModelInfo{}, fmt.Errorf("registry: model %q payload CRC %08x does not match manifest %08x: %w",
			name, sum, info.Checksum, container.ErrCorrupt)
	}
	telModelsLoaded.Inc()
	return framed, info, nil
}

// Model returns a stored model's manifest without reading its payload.
func (r *Registry) Model(name string) (ModelInfo, error) {
	if err := validName(name); err != nil {
		return ModelInfo{}, err
	}
	var info ModelInfo
	if err := r.readManifest(r.modelManifestPath(name), &info); err != nil {
		return ModelInfo{}, err
	}
	return info, nil
}

// Models lists stored models in name order. Entries with unreadable
// manifests are skipped (Sweep reclaims them).
func (r *Registry) Models() []ModelInfo {
	var out []ModelInfo
	for _, name := range r.manifestNames(filepath.Join(r.dir, modelsDir)) {
		var info ModelInfo
		if err := r.readManifest(r.modelManifestPath(name), &info); err == nil && info.Name == name {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PutJob stores a terminal job record without a trace payload (a failed
// job); PutJobStore stores one with its trace.
func (r *Registry) PutJob(rec JobRecord) error {
	if err := validName(rec.ID); err != nil {
		return err
	}
	rec.SavedAt = r.now().UTC().Format(time.RFC3339)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.writeManifest(r.jobManifestPath(rec.ID), rec); err != nil {
		return err
	}
	telJobsSaved.Inc()
	return nil
}

// Job returns one stored job record by ID.
func (r *Registry) Job(id string) (JobRecord, error) {
	if err := validName(id); err != nil {
		return JobRecord{}, err
	}
	var rec JobRecord
	if err := r.readManifest(r.jobManifestPath(id), &rec); err != nil {
		return JobRecord{}, err
	}
	return rec, nil
}

// Jobs lists stored job records in ID order. Unreadable manifests are
// skipped.
func (r *Registry) Jobs() []JobRecord {
	var out []JobRecord
	for _, id := range r.manifestNames(filepath.Join(r.dir, jobsDir)) {
		var rec JobRecord
		if err := r.readManifest(r.jobManifestPath(id), &rec); err == nil && rec.ID == id {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// VerifyJob re-validates a stored job's trace store end to end (every
// block read, CRC-checked and decoded). Jobs without traces verify
// trivially. A job whose store is missing, such as one written before
// the columnar store, fails with os.ErrNotExist.
func (r *Registry) VerifyJob(id string) error {
	var rec JobRecord
	if err := r.readManifest(r.jobManifestPath(id), &rec); err != nil {
		return err
	}
	if rec.TraceKind == "" {
		return nil
	}
	return r.verifyJobStore(id)
}

// Sweep garbage-collects the registry: stray *.tmp files and staging
// directories from interrupted writes, payloads without manifests
// (including orphaned .store directories), manifests without payloads,
// and entries whose payload fails validation — a torn container frame,
// a CRC mismatch, a store with a truncated block or corrupt column
// group — are removed. Any other file belongs to the entry its name
// minus its extension names, so a file no payload kind explains (such
// as the flat jobs/<id>.trace of a job written before the columnar
// store) goes with its entry. The registry is valid and fully servable
// afterwards; a damaged payload can never crash recovery.
func (r *Registry) Sweep() (SweepReport, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var rep SweepReport

	remove := func(path string, corrupt bool) error {
		// RemoveAll: payloads may be store directories, not just files.
		if err := os.RemoveAll(path); err != nil {
			return err
		}
		rel, _ := filepath.Rel(r.dir, path)
		rep.Removed = append(rep.Removed, rel)
		if corrupt {
			rep.Corrupt++
			telCorrupt.Inc()
		}
		return nil
	}

	for _, sub := range []string{modelsDir, jobsDir} {
		entries, err := os.ReadDir(filepath.Join(r.dir, sub))
		if err != nil {
			return rep, fmt.Errorf("registry: sweep %s: %w", sub, err)
		}
		manifests := map[string]bool{}
		payloads := map[string][]string{} // name -> payload paths
		addPayload := func(name, path string) { payloads[name] = append(payloads[name], path) }
		for _, e := range entries {
			path := filepath.Join(r.dir, sub, e.Name())
			if e.IsDir() {
				switch {
				case strings.HasSuffix(e.Name(), ".tmp"):
					// Abandoned store staging directory.
					if err := remove(path, false); err != nil {
						return rep, err
					}
				case strings.HasSuffix(e.Name(), storeExt):
					addPayload(strings.TrimSuffix(e.Name(), storeExt), path)
				}
				continue
			}
			switch {
			case strings.HasSuffix(e.Name(), ".tmp"):
				if err := remove(path, false); err != nil {
					return rep, err
				}
			case strings.HasSuffix(e.Name(), manifestExt):
				manifests[strings.TrimSuffix(e.Name(), manifestExt)] = true
			default:
				addPayload(strings.TrimSuffix(e.Name(), filepath.Ext(e.Name())), path)
			}
		}
		// Orphaned payloads: no manifest claims them.
		for name, paths := range payloads {
			if !manifests[name] {
				for _, path := range paths {
					if err := remove(path, false); err != nil {
						return rep, err
					}
				}
			}
		}
		// Manifests whose payload is missing or corrupt.
		for name := range manifests {
			var bad, corrupt bool
			if sub == modelsDir {
				if _, _, err := r.ModelBytes(name); err != nil {
					bad, corrupt = true, !errors.Is(err, os.ErrNotExist)
				}
			} else if err := r.VerifyJob(name); err != nil {
				bad, corrupt = true, !errors.Is(err, os.ErrNotExist)
			}
			if bad {
				manifestPath := filepath.Join(r.dir, sub, name+manifestExt)
				if err := remove(manifestPath, corrupt); err != nil {
					return rep, err
				}
				for _, path := range payloads[name] {
					if err := remove(path, false); err != nil {
						return rep, err
					}
				}
			}
		}
	}
	telSweeps.Inc()
	return rep, nil
}

func (r *Registry) modelPath(name string) string {
	return filepath.Join(r.dir, modelsDir, name+modelExt)
}
func (r *Registry) modelManifestPath(name string) string {
	return filepath.Join(r.dir, modelsDir, name+manifestExt)
}
func (r *Registry) jobManifestPath(id string) string {
	return filepath.Join(r.dir, jobsDir, id+manifestExt)
}

func (r *Registry) writeManifest(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: encode manifest %s: %w", filepath.Base(path), err)
	}
	if err := container.AtomicWrite(container.OSFS{}, path, append(data, '\n')); err != nil {
		return fmt.Errorf("registry: write manifest %s: %w", filepath.Base(path), err)
	}
	return nil
}

func (r *Registry) readManifest(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("registry: manifest %s: %w", filepath.Base(path), err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("registry: parse manifest %s: %w", filepath.Base(path), err)
	}
	return nil
}

// manifestNames returns the entry names (manifest files minus extension)
// in dir.
func (r *Registry) manifestNames(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), manifestExt) {
			names = append(names, strings.TrimSuffix(e.Name(), manifestExt))
		}
	}
	return names
}
