package registry

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
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
		return store.WriteFlowTrace(dir, ft, store.Options{BlockRows: 64, PartitionRows: 256})
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
	if !rec.TraceStore || rec.TraceKind != "netflow" || rec.TraceRows != 500 || rec.TraceSize <= 0 {
		t.Fatalf("bad record: %+v", rec)
	}
	if rec.TraceChecksum != 0 {
		t.Fatalf("store payloads carry per-block CRCs, checksum should be 0, got %d", rec.TraceChecksum)
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
	if err := s.WriteCSV(&got); err != nil {
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
	if err := r.DeleteJob("job-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(r.storePath("job-1")); !os.IsNotExist(err) {
		t.Fatalf("store dir survived DeleteJob: %v", err)
	}
	if _, err := r.Job("job-1"); err == nil {
		t.Fatal("job manifest survived DeleteJob")
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
	if err := store.WriteFlowTrace(orphan, storeFlowTrace(64), store.Options{}); err != nil {
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

// putLegacyJob writes a job the way registries did before the columnar
// store: a manifest carrying the payload's CRC and size next to
// jobs/<id>.trace, the container-framed trace CSV.
func putLegacyJob(t *testing.T, r *Registry, id, kind string, csv []byte) {
	t.Helper()
	rec := JobRecord{
		ID: id, State: "done", Status: json.RawMessage(`{}`), Model: id, TraceKind: kind,
		TraceChecksum: crc32.ChecksumIEEE(csv), TraceSize: int64(len(csv)), SavedAt: "2025-01-01T00:00:00Z",
	}
	if err := r.writeManifest(r.jobManifestPath(id), rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(r.legacyTracePath(id), container.Encode(container.KindTrace, csv), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSweepMigratesLegacyTrace pins the one-time migration of flat-CSV
// payloads: the migrated store streams the original bytes, the .trace
// file is gone, a corrupt payload is swept as corrupt, and crashes on
// either side of the manifest flip leave a servable job after the next
// Sweep.
func TestSweepMigratesLegacyTrace(t *testing.T) {
	var flowCSV, pktCSV bytes.Buffer
	if err := trace.WriteFlowCSV(&flowCSV, storeFlowTrace(300)); err != nil {
		t.Fatal(err)
	}
	pk := &trace.PacketTrace{}
	for i := 0; i < 50; i++ {
		pk.Packets = append(pk.Packets, trace.Packet{
			Time:  int64(i) * 10,
			Tuple: trace.FiveTuple{SrcIP: trace.IPv4FromBytes(10, 0, 0, 1), DstIP: trace.IPv4FromBytes(10, 0, 0, 2), SrcPort: 80, DstPort: uint16(1000 + i), Proto: trace.TCP},
			Size:  60 + i, TTL: 64,
		})
	}
	if err := trace.WritePacketCSV(&pktCSV, pk); err != nil {
		t.Fatal(err)
	}

	// servable checks that a job's store streams exactly want as CSV and
	// that no legacy payload is left.
	servable := func(t *testing.T, r *Registry, id string, want []byte) {
		t.Helper()
		rec, err := r.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.TraceStore || rec.TraceChecksum != 0 || rec.SavedAt != "2025-01-01T00:00:00Z" {
			t.Fatalf("manifest not flipped to the store: %+v", rec)
		}
		s, err := r.OpenStore(id)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := s.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("migrated %s CSV differs from the legacy payload", id)
		}
		if _, err := os.Stat(r.legacyTracePath(id)); !os.IsNotExist(err) {
			t.Fatalf("legacy payload survived migration: %v", err)
		}
	}

	t.Run("migrate", func(t *testing.T) {
		r := open(t)
		putLegacyJob(t, r, "job-flow", "netflow", flowCSV.Bytes())
		putLegacyJob(t, r, "job-pkt", "pcap", pktCSV.Bytes())
		if rep, err := r.Sweep(); err != nil || len(rep.Removed) != 0 {
			t.Fatalf("sweep: %+v, %v", rep, err)
		}
		servable(t, r, "job-flow", flowCSV.Bytes())
		servable(t, r, "job-pkt", pktCSV.Bytes())
		// A second Sweep finds nothing to do.
		if rep, err := r.Sweep(); err != nil || len(rep.Removed) != 0 {
			t.Fatalf("second sweep: %+v, %v", rep, err)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		r := open(t)
		putLegacyJob(t, r, "job-good", "netflow", flowCSV.Bytes())
		putLegacyJob(t, r, "job-crc", "netflow", flowCSV.Bytes())
		putLegacyJob(t, r, "job-torn", "netflow", flowCSV.Bytes())
		putLegacyJob(t, r, "job-garbled", "netflow", []byte("not,a,trace\n"))
		// A well-framed, parseable payload that is not the one the
		// manifest describes.
		putLegacyJob(t, r, "job-swapped", "netflow", flowCSV.Bytes())
		var other bytes.Buffer
		if err := trace.WriteFlowCSV(&other, storeFlowTrace(10)); err != nil {
			t.Fatal(err)
		}
		swapped := container.Encode(container.KindTrace, other.Bytes())
		if err := os.WriteFile(r.legacyTracePath("job-swapped"), swapped, 0o644); err != nil {
			t.Fatal(err)
		}
		data, _ := os.ReadFile(r.legacyTracePath("job-crc"))
		data[len(data)-5] ^= 0x20
		if err := os.WriteFile(r.legacyTracePath("job-crc"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(r.legacyTracePath("job-torn"), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := r.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Corrupt != 4 {
			t.Fatalf("corrupt = %d, want 4 (%v)", rep.Corrupt, rep.Removed)
		}
		for _, id := range []string{"job-crc", "job-torn", "job-garbled", "job-swapped"} {
			if _, err := r.Job(id); err == nil {
				t.Fatalf("%s survived sweep", id)
			}
			if _, err := os.Stat(r.legacyTracePath(id)); !os.IsNotExist(err) {
				t.Fatalf("%s payload survived sweep", id)
			}
		}
		servable(t, r, "job-good", flowCSV.Bytes())
	})

	t.Run("crash-after-rename", func(t *testing.T) {
		// A store is in place but the manifest still describes the
		// legacy payload. The store differs from the payload, so serving
		// the original bytes proves the migration ran again.
		r := open(t)
		putLegacyJob(t, r, "job-1", "netflow", flowCSV.Bytes())
		if err := store.WriteFlowTrace(r.storePath("job-1"), storeFlowTrace(5), store.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Sweep(); err != nil {
			t.Fatal(err)
		}
		servable(t, r, "job-1", flowCSV.Bytes())
	})

	t.Run("crash-after-flip", func(t *testing.T) {
		// The manifest is flipped but the legacy payload was not yet
		// deleted.
		r := open(t)
		putLegacyJob(t, r, "job-1", "netflow", flowCSV.Bytes())
		framed, _ := os.ReadFile(r.legacyTracePath("job-1"))
		if _, err := r.Sweep(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(r.legacyTracePath("job-1"), framed, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Sweep(); err != nil {
			t.Fatal(err)
		}
		servable(t, r, "job-1", flowCSV.Bytes())
	})

	t.Run("orphan", func(t *testing.T) {
		r := open(t)
		putLegacyJob(t, r, "job-1", "netflow", flowCSV.Bytes())
		if err := os.Remove(r.jobManifestPath("job-1")); err != nil {
			t.Fatal(err)
		}
		rep, err := r.Sweep()
		if err != nil || len(rep.Removed) != 1 || rep.Corrupt != 0 {
			t.Fatalf("orphaned legacy payload: %+v, %v", rep, err)
		}
	})
}
