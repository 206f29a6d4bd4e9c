package registry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/container"
	"repro/internal/store"
	"repro/internal/trace"
)

func storeFlowTrace(n int) *trace.FlowTrace {
	t := &trace.FlowTrace{}
	for i := 0; i < n; i++ {
		t.Records = append(t.Records, trace.FlowRecord{
			Tuple: trace.FiveTuple{
				SrcIP:   trace.IPv4FromBytes(10, 0, 0, byte(i%9)),
				DstIP:   trace.IPv4FromBytes(192, 168, 0, byte(i%3)),
				SrcPort: uint16(1000 + i),
				DstPort: 443,
				Proto:   trace.TCP,
			},
			Start:   int64(i) * 1000,
			Packets: int64(1 + i%5),
			Bytes:   int64(40 + i%500),
			Label:   trace.Label(i % 3),
		})
	}
	return t
}

func putStoreJob(t *testing.T, r *Registry, id string, n int) *trace.FlowTrace {
	t.Helper()
	ft := storeFlowTrace(n)
	rec := JobRecord{ID: id, State: "done", Status: json.RawMessage(`{}`)}
	err := r.PutJobStore(rec, func(dir string) error {
		_, err := store.Write(dir, ft, store.Options{BlockRows: 64, PartitionRows: 256})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestPutJobStoreRoundTrip(t *testing.T) {
	r := open(t)
	ft := putStoreJob(t, r, "job-1", 500)

	rec, err := r.Job("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.TraceKind != "netflow" || rec.TraceRows != 500 || rec.TraceSize <= 0 {
		t.Fatalf("bad record: %+v", rec)
	}

	// Queryable through OpenStore.
	s, err := r.OpenStore("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 500 || s.Kind() != trace.KindNetFlow {
		t.Fatalf("rows=%d kind=%v", s.Rows(), s.Kind())
	}

	// The store streams CSV byte-identical to the in-memory trace's.
	var want, got bytes.Buffer
	if err := trace.WriteFlowCSV(&want, ft); err != nil {
		t.Fatal(err)
	}
	csv, err := trace.LookupFormat("csv", s.Kind())
	if err != nil {
		t.Fatal(err)
	}
	if err := csv.Encode(&got, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("store CSV differs from canonical CSV")
	}

	// Deep verification passes.
	if err := r.VerifyJob("job-1"); err != nil {
		t.Fatal(err)
	}

	// The store is materially smaller than the CSV it replaces.
	if rec.TraceSize >= int64(want.Len()) {
		t.Fatalf("store %d bytes >= CSV %d bytes", rec.TraceSize, want.Len())
	}
}

func TestPutJobStoreReplacesAndDeletes(t *testing.T) {
	r := open(t)
	putStoreJob(t, r, "job-1", 100)
	putStoreJob(t, r, "job-1", 300) // overwrite with a different trace
	rec, err := r.Job("job-1")
	if err != nil || rec.TraceRows != 300 {
		t.Fatalf("after overwrite: rows=%d err=%v", rec.TraceRows, err)
	}
	// The replaced store is deleted: one store directory, nothing staged.
	entries, err := os.ReadDir(filepath.Join(r.Dir(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("jobs dir holds %d entries after overwrite, want the manifest and one store", len(entries))
	}
	if s, err := r.OpenStore("job-1"); err != nil || s.Rows() != 300 {
		t.Fatalf("replaced store: %v", err)
	}
}

func TestPutJobStoreRejectsBrokenBuild(t *testing.T) {
	r := open(t)
	rec := JobRecord{ID: "job-1", State: "done", Status: json.RawMessage(`{}`)}
	// Builder writes garbage, not a store: commit must refuse and leave
	// no staging debris behind.
	err := r.PutJobStore(rec, func(dir string) error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, "junk"), []byte("x"), 0o644)
	})
	if err == nil {
		t.Fatal("PutJobStore accepted a non-store payload")
	}
	entries, _ := os.ReadDir(filepath.Join(r.Dir(), "jobs"))
	if len(entries) != 0 {
		t.Fatalf("staging debris left behind: %v", entries)
	}
}

// Sweep over store payloads: every corruption mode is GC'd without
// crashing, and healthy store jobs survive untouched.
func TestSweepStorePayloads(t *testing.T) {
	damage := []struct {
		name    string
		corrupt func(t *testing.T, storeDir string)
	}{
		{"orphaned partition dir", func(t *testing.T, dir string) {
			// A partition directory the manifest does not know about is
			// harmless clutter — but one the manifest DOES list going
			// missing is corruption.
			if err := os.RemoveAll(filepath.Join(dir, "p00001")); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated block", func(t *testing.T, dir string) {
			path := filepath.Join(dir, "p00000", "src_ip.col")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"crc-corrupt column group", func(t *testing.T, dir string) {
			path := filepath.Join(dir, "p00001", "bytes.col")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/3] ^= 0x10
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing store manifest", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, store.ManifestName)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range damage {
		t.Run(tc.name, func(t *testing.T) {
			r := open(t)
			putStoreJob(t, r, "job-good", 400)
			putStoreJob(t, r, "job-bad", 400)
			tc.corrupt(t, r.storePath("job-bad"))

			rep, err := r.Sweep()
			if err != nil {
				t.Fatalf("sweep crashed: %v", err)
			}
			if rep.Corrupt == 0 {
				t.Fatalf("sweep reported no corruption: %+v", rep)
			}
			if _, err := r.Job("job-bad"); err == nil {
				t.Fatal("corrupt store job survived sweep")
			}
			if _, err := os.Stat(r.storePath("job-bad")); !os.IsNotExist(err) {
				t.Fatal("corrupt store dir survived sweep")
			}
			// The healthy job still opens and verifies after the sweep —
			// boot recovery is never poisoned by a neighbor's corruption.
			if err := r.VerifyJob("job-good"); err != nil {
				t.Fatalf("healthy job damaged by sweep: %v", err)
			}
			if s, err := r.OpenStore("job-good"); err != nil || s.Rows() != 400 {
				t.Fatalf("healthy store unreadable after sweep: %v", err)
			}
		})
	}
}

// Orphaned store directories (payload without manifest) and abandoned
// staging directories are reclaimed like orphaned flat payloads.
func TestSweepOrphanedStoreDirs(t *testing.T) {
	r := open(t)
	putStoreJob(t, r, "job-1", 200)

	// Orphan: a full store directory with no job manifest.
	orphan := r.storePath("job-orphan")
	if _, err := store.Write(orphan, storeFlowTrace(64), store.Options{}); err != nil {
		t.Fatal(err)
	}
	// Stray staging dir from a crashed PutJobStore.
	staging := r.storePath("job-crashed") + ".tmp"
	if err := os.MkdirAll(filepath.Join(staging, "p00000"), 0o755); err != nil {
		t.Fatal(err)
	}

	rep, err := r.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{orphan, staging} {
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%s survived sweep (report %+v)", dir, rep)
		}
	}
	if len(rep.Removed) != 2 {
		t.Fatalf("removed %v, want the orphan and the staging dir", rep.Removed)
	}
	if err := r.VerifyJob("job-1"); err != nil {
		t.Fatalf("healthy job: %v", err)
	}
}

// TestSweepRemovesPreStoreJob: a job written before the columnar store
// (a manifest carrying a flat payload's CRC and size, no store, and the
// container-framed CSV at jobs/<id>.trace) is not recoverable. The boot
// sweep removes both files as a missing payload, not as corruption.
func TestSweepRemovesPreStoreJob(t *testing.T) {
	r := open(t)
	putStoreJob(t, r, "job-new", 50)
	manifest := []byte(`{"id":"job-old","state":"done","status":{},"model":"job-old",` +
		`"traceKind":"netflow","traceChecksum":305419896,"traceSize":42,"savedAt":"2025-01-01T00:00:00Z"}`)
	if err := os.WriteFile(r.jobManifestPath("job-old"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	payload := filepath.Join(r.Dir(), "jobs", "job-old.trace")
	// 4 is the retired container kind that framed flat job traces.
	if err := os.WriteFile(payload, container.Encode(4, []byte("csv")), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join("jobs", "job-old.json"), filepath.Join("jobs", "job-old.trace")}
	slices.Sort(rep.Removed)
	if !slices.Equal(rep.Removed, want) || rep.Corrupt != 0 {
		t.Fatalf("sweep: removed %v (%d corrupt), want %v (0 corrupt)", rep.Removed, rep.Corrupt, want)
	}
	for _, path := range []string{r.jobManifestPath("job-old"), payload} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s survived sweep: %v", path, err)
		}
	}
	if err := r.VerifyJob("job-new"); err != nil {
		t.Fatalf("store job damaged by sweep: %v", err)
	}
}
