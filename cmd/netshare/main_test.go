package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func TestParseCIDR(t *testing.T) {
	ip, bits, err := parseCIDR("10.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	if ip != trace.IPv4FromBytes(10, 0, 0, 0) || bits != 8 {
		t.Fatalf("parseCIDR = %v/%d", ip, bits)
	}
	for _, bad := range []string{"", "10.0.0.0", "10.0.0.0/40", "x/8"} {
		if _, _, err := parseCIDR(bad); err == nil {
			t.Fatalf("parseCIDR(%q) should fail", bad)
		}
	}
}

func TestWriteFlowFormats(t *testing.T) {
	dir := t.TempDir()
	tr := datasets.UGR16(50, 1)
	for _, format := range []string{"csv", "netflow5", "netflow9", "ipfix"} {
		f, err := trace.LookupFormat(format, trace.KindNetFlow)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "out."+format)
		if err := writeTrace(path, f, tr); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: empty output", format)
		}
	}
	pcap, _ := trace.LookupFormat("pcap", trace.KindPCAP)
	if err := writeTrace(filepath.Join(dir, "x"), pcap, tr); err == nil {
		t.Fatal("pcap format must be rejected for flows")
	}
}

// TestBadFormatFailsBeforeTraining: a -format the trace kind cannot
// carry fails at flag parsing, before any training and before -out is
// created, for every role.
func TestBadFormatFailsBeforeTraining(t *testing.T) {
	trainPhase := telemetry.Default.Timer("core.train.phase")
	before := trainPhase.Count()
	for _, args := range [][]string{
		{"-kind", "netflow", "-format", "pcap"},
		{"-kind", "pcap", "-format", "netflow9"},
		{"-kind", "netflow", "-format", "xml", "-role", "coordinator", "-cluster", t.TempDir()},
		{"-kind", "netflow", "-format", "xml", "-role", "worker", "-cluster", t.TempDir()},
	} {
		out := filepath.Join(t.TempDir(), "syn.out")
		args = append(args, "-dataset", "ugr16", "-records", "300", "-out", out)
		err := run(args)
		if !errors.Is(err, trace.ErrFormat) {
			t.Fatalf("%v: got %v, want ErrFormat", args, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("%v: -out was created: %v", args, err)
		}
	}
	if n := trainPhase.Count() - before; n != 0 {
		t.Fatalf("%d training phases ran before the -format error", n)
	}
}

// TestMaxRetriesIsCoordinatorOnly: -max-retries sets a cluster job's
// re-lease budget; any other role rejects it before training.
func TestMaxRetriesIsCoordinatorOnly(t *testing.T) {
	for _, role := range []string{"standalone", "worker"} {
		args := []string{"-role", role, "-max-retries", "2", "-dataset", "ugr16", "-records", "300",
			"-cluster", t.TempDir(), "-out", filepath.Join(t.TempDir(), "syn.csv")}
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-max-retries") {
			t.Fatalf("-role %s -max-retries: got %v, want a flag error", role, err)
		}
	}
}

func TestGenerateFlowUnknownLabel(t *testing.T) {
	// ParseLabel rejects the name before the synthesizer is consulted,
	// so a nil synthesizer is safe here.
	if _, err := generateFlow(nil, 10, "not-a-label"); err == nil {
		t.Fatal("unknown scenario label must be rejected")
	}
}

func TestWritePacketFormats(t *testing.T) {
	dir := t.TempDir()
	tr := datasets.CAIDA(50, 1)
	for _, format := range []string{"csv", "pcap"} {
		f, err := trace.LookupFormat(format, trace.KindPCAP)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeTrace(filepath.Join(dir, "out."+format), f, tr); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
	}
	nf5, _ := trace.LookupFormat("netflow5", trace.KindNetFlow)
	if err := writeTrace(filepath.Join(dir, "x"), nf5, tr); err == nil {
		t.Fatal("netflow5 format must be rejected for packets")
	}
}

func TestLoadFlowInputs(t *testing.T) {
	if _, err := loadFlow(nil, "", "", "", 10, 1); err == nil {
		t.Fatal("missing source must fail")
	}
	if _, err := loadFlow(nil, "", "", "nope", 10, 1); err == nil {
		t.Fatal("unknown dataset must fail")
	}
	tr, err := loadFlow(nil, "", "", "ugr16", 25, 1)
	if err != nil || len(tr.Records) != 25 {
		t.Fatalf("builtin load: %v, %d records", err, len(tr.Records))
	}
	// Round trip through a CSV file.
	dir := t.TempDir()
	path := filepath.Join(dir, "in.csv")
	csv, _ := trace.LookupFormat("csv", trace.KindNetFlow)
	if err := writeTrace(path, csv, tr); err != nil {
		t.Fatal(err)
	}
	back, err := loadFlow(nil, path, "", "", 0, 0)
	if err != nil || len(back.Records) != 25 {
		t.Fatalf("csv load: %v, %d records", err, len(back.Records))
	}
}

// TestLoadStoreInputs covers -store-in: loading from a columnar store
// reproduces the trace exactly, and kind mismatches fail loudly.
func TestLoadStoreInputs(t *testing.T) {
	dir := t.TempDir()
	ft := datasets.UGR16(40, 1)
	flowDir := filepath.Join(dir, "flows.store")
	if _, err := store.Write(flowDir, ft, store.Options{}); err != nil {
		t.Fatal(err)
	}
	back, err := loadFlow(nil, "", flowDir, "", 0, 0)
	if err != nil || len(back.Records) != len(ft.Records) {
		t.Fatalf("store load: %v, %d records", err, len(back.Records))
	}
	for i := range ft.Records {
		if back.Records[i] != ft.Records[i] {
			t.Fatalf("record %d drifted through the store", i)
		}
	}

	pt := datasets.CAIDA(30, 1)
	pktDir := filepath.Join(dir, "packets.store")
	if _, err := store.Write(pktDir, pt, store.Options{}); err != nil {
		t.Fatal(err)
	}
	pback, err := loadPacket(nil, "", pktDir, "", 0, 0)
	if err != nil || len(pback.Packets) != len(pt.Packets) {
		t.Fatalf("packet store load: %v", err)
	}

	// Kind mismatches and missing directories are rejected.
	if _, err := loadFlow(nil, "", pktDir, "", 0, 0); err == nil {
		t.Fatal("loadFlow accepted a pcap store")
	}
	if _, err := loadPacket(nil, "", flowDir, "", 0, 0); err == nil {
		t.Fatal("loadPacket accepted a netflow store")
	}
	if _, err := loadFlow(nil, "", filepath.Join(dir, "missing"), "", 0, 0); err == nil {
		t.Fatal("loadFlow accepted a missing store directory")
	}
}

func TestModelSaveLoadHelpers(t *testing.T) {
	// Error paths only; the happy path is covered by internal/core tests.
	missing := modelSource{path: "/nonexistent/model"}
	if _, err := obtain(missing, "flow", core.LoadFlowSynthesizer, nil); err == nil {
		t.Fatal("missing file must fail")
	}
	if _, err := obtain(missing, "packet", core.LoadPacketSynthesizer, nil); err == nil {
		t.Fatal("missing file must fail")
	}
	if err := saveModel("/nonexistent/dir/model", func(io.Writer) error { return nil }); err == nil {
		t.Fatal("unwritable path must fail")
	}
	wantErr := errors.New("encode failed")
	if err := saveModel(filepath.Join(t.TempDir(), "m"), func(io.Writer) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("serialization error must propagate, got %v", err)
	}
}

func TestWriteMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := writeMetrics(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if err := writeMetrics("/nonexistent/dir/metrics.json"); err == nil {
		t.Fatal("unwritable path must fail")
	}
}
