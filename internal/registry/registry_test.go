package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/container"
	"repro/internal/store"
)

func open(t *testing.T) *Registry {
	t.Helper()
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func framedModel(payload string) []byte {
	return container.Encode(container.KindFlowModel, []byte(payload))
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir must fail")
	}
}

func TestModelRoundTrip(t *testing.T) {
	r := open(t)
	framed := framedModel("weights-v1")
	info, err := r.PutModel("caida-flow", framed)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "flow" || info.Size != int64(len(framed)) {
		t.Fatalf("bad info: %+v", info)
	}
	got, gotInfo, err := r.ModelBytes("caida-flow")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, framed) || gotInfo.Checksum != info.Checksum {
		t.Fatal("model bytes did not round trip")
	}
	models := r.Models()
	if len(models) != 1 || models[0].Name != "caida-flow" {
		t.Fatalf("Models() = %+v", models)
	}
}

func TestPutModelOverwrites(t *testing.T) {
	r := open(t)
	if _, err := r.PutModel("m", framedModel("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PutModel("m", framedModel("v2-longer-payload")); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.ModelBytes("m")
	if err != nil {
		t.Fatal(err)
	}
	if _, payload, _ := container.Decode(got); string(payload) != "v2-longer-payload" {
		t.Fatalf("overwrite lost: %q", payload)
	}
	if len(r.Models()) != 1 {
		t.Fatal("overwrite must not duplicate the entry")
	}
}

func TestPutModelRejectsInvalidInput(t *testing.T) {
	r := open(t)
	if _, err := r.PutModel("m", []byte("definitely not a container file")); !errors.Is(err, container.ErrBadMagic) {
		t.Fatalf("unframed bytes: %v", err)
	}
	if _, err := r.PutModel("m", container.Encode(container.KindCheckpoint, []byte("x"))); err == nil {
		t.Fatal("non-model kind must be rejected")
	}
	for _, name := range []string{"", "../escape", "a/b", ".hidden", "sp ace"} {
		if _, err := r.PutModel(name, framedModel("x")); err == nil {
			t.Fatalf("name %q must be rejected", name)
		}
	}
	if len(r.Models()) != 0 {
		t.Fatal("rejected puts must leave nothing behind")
	}
}

func TestModelBytesDetectsTampering(t *testing.T) {
	r := open(t)
	if _, err := r.PutModel("m", framedModel("precious weights")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(r.Dir(), "models", "m.mdl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ModelBytes("m"); !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("bit flip: got %v, want ErrCorrupt", err)
	}
}

func TestJobRoundTripWithTrace(t *testing.T) {
	r := open(t)
	status := json.RawMessage(`{"id":"job-1","state":"done","records":42}`)
	rec := JobRecord{ID: "job-1", State: "done", Status: status, Model: "job-1"}
	ft := storeFlowTrace(42)
	build := func(dir string) error {
		_, err := store.Write(dir, ft, store.Options{})
		return err
	}
	if err := r.PutJobStore(rec, build); err != nil {
		t.Fatal(err)
	}
	jobs := r.Jobs()
	if len(jobs) != 1 || jobs[0].ID != "job-1" || jobs[0].TraceRows != 42 || jobs[0].TraceKind != "netflow" {
		t.Fatalf("Jobs() = %+v", jobs)
	}
	// The stored manifest may re-indent the embedded document; it must
	// stay semantically identical.
	var wantSt, gotSt map[string]any
	if err := json.Unmarshal(status, &wantSt); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(jobs[0].Status, &gotSt); err != nil {
		t.Fatalf("recovered status is not valid JSON: %v", err)
	}
	if len(gotSt) != len(wantSt) || gotSt["id"] != wantSt["id"] || gotSt["records"] != wantSt["records"] {
		t.Fatalf("status did not round trip: %s vs %s", jobs[0].Status, status)
	}
	got, err := r.OpenStore("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if back, err := got.FlowRecords(); err != nil || !reflect.DeepEqual(back, ft) {
		t.Fatalf("trace payload mismatch: %v", err)
	}
}

func TestJobWithoutTrace(t *testing.T) {
	r := open(t)
	rec := JobRecord{ID: "job-9", State: "failed", Status: json.RawMessage(`{"error":"boom"}`)}
	if err := r.PutJob(rec); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyJob("job-9"); err != nil {
		t.Fatalf("trace-less job must verify: %v", err)
	}
	if _, err := r.OpenStore("job-9"); err == nil {
		t.Fatal("opening a missing trace must fail")
	}
}

func TestSweepReclaimsStraysOrphansAndCorruption(t *testing.T) {
	r := open(t)
	if _, err := r.PutModel("keep", framedModel("good")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PutModel("broken", framedModel("soon corrupt")); err != nil {
		t.Fatal(err)
	}
	putStoreJob(t, r, "job-1", 10)

	// Stray temp file from an interrupted atomic write.
	stray := filepath.Join(r.Dir(), "models", "half.mdl.tmp")
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Orphaned payload with no manifest.
	orphan := filepath.Join(r.Dir(), "models", "orphan.mdl")
	if err := os.WriteFile(orphan, framedModel("unclaimed"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Corrupt a stored model's payload.
	brokenPath := filepath.Join(r.Dir(), "models", "broken.mdl")
	data, _ := os.ReadFile(brokenPath)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(brokenPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Manifest whose payload vanished.
	putStoreJob(t, r, "job-gone", 10)
	if err := os.RemoveAll(r.storePath("job-gone")); err != nil {
		t.Fatal(err)
	}

	rep, err := r.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) == 0 {
		t.Fatal("sweep removed nothing")
	}
	if rep.Corrupt == 0 {
		t.Fatal("sweep must count the corrupt model")
	}
	for _, path := range []string{stray, orphan, brokenPath} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s must be gone after sweep", path)
		}
	}
	// The healthy entries survive and still verify.
	if _, _, err := r.ModelBytes("keep"); err != nil {
		t.Fatalf("healthy model lost: %v", err)
	}
	if err := r.VerifyJob("job-1"); err != nil {
		t.Fatalf("healthy job lost: %v", err)
	}
	if jobs := r.Jobs(); len(jobs) != 1 || jobs[0].ID != "job-1" {
		t.Fatalf("Jobs() after sweep = %+v", jobs)
	}
}

func TestSweepOnCleanRegistryIsNoop(t *testing.T) {
	r := open(t)
	if _, err := r.PutModel("m", framedModel("x")); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 0 || rep.Corrupt != 0 {
		t.Fatalf("clean registry swept: %+v", rep)
	}
}

func TestConcurrentPutsAndReads(t *testing.T) {
	r := open(t)
	done := make(chan error, 8)
	for i := 0; i < 4; i++ {
		go func(i int) {
			name := []string{"a", "b", "c", "d"}[i]
			_, err := r.PutModel(name, framedModel(name))
			done <- err
		}(i)
		go func() {
			r.Models()
			r.Jobs()
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if len(r.Models()) != 4 {
		t.Fatalf("got %d models, want 4", len(r.Models()))
	}
}
