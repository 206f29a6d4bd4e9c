GO ?= go
FUZZTIME ?= 5s

.PHONY: all fmt build vet test test-race test-crash test-telemetry test-conformance test-conditional test-ingest test-store test-cluster test-e2ebench fuzz bench bench-smoke staticcheck govulncheck ci clean

all: build

# Formatting gate: fails when gofmt would change any Go file of the root
# module or of e2ebench/ (hidden directories such as .bench_build/ are
# skipped). It only lists the files; it never rewrites them.
fmt:
	@out=$$(find . -name '*.go' -not -path './.*' -exec gofmt -l {} +) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# The arm64 build type-checks and compiles the !amd64 fallback
# (internal/mat/kernels_noasm.go: the pure-Go kernel set) that no amd64
# build compiles.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent chunk fine-tunes and the
# lot-parallel generation pipeline: matmuls issued from many goroutines
# at once and their shared scratch pool, the per-sample DP-SGD fan-out, the
# plan executor's fine-tune fan-out and its checkpoint/resume records,
# the one lot sampler both generate modes (float64 exact, float32 fast)
# run and its scratch pool, the durable model registry (DESIGN.md
# §6–8, §10), and model serving — the decoded-model LRU, concurrent
# stateless generates and the fast mode's per-entry lock (DESIGN.md
# §11) — plus the columnar trace
# store and the webapi artifact cache layered on it, which also holds
# default-mode generate replies (DESIGN.md §13), and the distributed
# chunk queue with its worker-kill golden test (DESIGN.md §14).
# internal/trace covers the egress format table: every format's
# streaming writer and reader (CSV, pcap, NetFlow v5/v9, IPFIX).
test-race:
	$(GO) test -race ./internal/mat/... ./internal/dgan/... ./internal/core/... \
		./internal/privacy/... ./internal/ip2vec/... \
		./internal/container/... ./internal/registry/... ./internal/webapi/... \
		./internal/conformance/... ./internal/ingest/... ./internal/trace/... \
		./internal/store/... ./internal/cluster/...

# Crash/fault matrix (DESIGN.md §7): the executor's kill-and-resume
# matrix, corrupt and unwritable checkpoints, changed-plan rejection,
# DP resume, the parent-pinned training goldens, the shared chunk-record
# reader, and the cluster worker-kill recovery test.
test-crash:
	$(GO) test ./internal/core -run 'Crash|Resume|Checkpoint|Epsilon|TrainingGolden'
	$(GO) test ./internal/container -run 'Chunk'
	$(GO) test ./internal/cluster -run 'TestWorkerCrashRecoveryBitwiseIdentical'

# Telemetry subsystem (DESIGN.md §9): race pass over the registry and the
# web API that serves it, the zero-allocation hot-path proofs (telemetry
# recording, and the warm generator forward in both precisions), and the
# strictly-observational contract — training and generation are
# bit-identical with recording on and off — and the deterministic-serving
# contract: the stateless generate equals a fresh load's first generate.
test-telemetry:
	$(GO) test -race ./internal/telemetry/... ./internal/webapi/...
	$(GO) test ./internal/telemetry ./internal/dgan -run 'TestHotPathZeroAllocs|TestWarmForwardZeroAllocs'
	$(GO) test ./internal/core -run 'TestTelemetryStrictlyObservational|TestFlowGenerateGolden|GenerateFreshMatchesFreshLoad'

# Live-ingestion subsystem (DESIGN.md §12): the streaming pcap reader's
# golden round-trip and framing-variant fixtures, the flow table's
# property tests (hard memory bounds, packet conservation, deterministic
# eviction incl. the 1M-packet capture), and the watcher/webapi wiring.
test-ingest:
	$(GO) test ./internal/ingest/... ./internal/trace/...
	$(GO) test ./internal/webapi -run TestIngestEndpoint

# Short fuzz pass over every fuzz target (trace parsers, the CSV writers
# byte for byte against encoding/csv, flow assembly,
# the chunk-record reader, the container and lease decoders, the matmul
# kernels: float64 bit for bit against the pure-Go reference, float32
# within rounding of the float64 product and, row by row, bit for bit
# against the same row computed alone, the nearest-word decode kernel,
# bit for bit, and FuzzActivationKernels: the float32 sigmoid, tanh, exp
# and ReLU leaves, the float64 sigmoid, tanh, exp and ReLU leaves with the
# ReLU gradients, and the Adam update, bit for bit). Each target needs its
# own
# invocation: `go test -fuzz` accepts exactly one target per run.
fuzz:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadPCAP -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadNetFlowV5 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadFlowCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadPacketCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzParseIPv4 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzWriteFlowCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadNetFlowV9 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadIPFIX -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzFlowAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/container -run '^$$' -fuzz FuzzChunkRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/container -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzBlockDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzQueryFilter -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzParseLease -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mat -run '^$$' -fuzz FuzzMatKernels -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mat -run '^$$' -fuzz FuzzNearestKernels -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mat -run '^$$' -fuzz FuzzActivationKernels -fuzztime $(FUZZTIME)

# Distributed training subsystem (DESIGN.md §14): the durable chunk
# queue's lease/reclaim/retry matrix, the plan API's
# distributed-equals-standalone golden tests, the worker-crash
# bitwise-recovery test, the cluster web API routing, and the watch-loop
# regression tests the cluster's rotating-capture deployments rely on.
test-cluster:
	$(GO) test ./internal/cluster/...
	$(GO) test ./internal/core -run 'Plan'
	$(GO) test ./internal/webapi -run 'Cluster'
	$(GO) test ./internal/ingest -run 'TestWatch'

# Distributional conformance gate for the serving fast path (DESIGN.md
# §11): per-field JSD/EMD of fast-path output vs the float64 reference
# path under calibrated thresholds, plus trace validity properties.
test-conformance:
	$(GO) test ./internal/conformance/...

# Conditional labeled generation (DESIGN.md §15): one-hot scenario
# conditioning through the dgan trainer and both samplers, the flow
# synthesizer's labeled API, the per-label scenario-matrix fidelity
# harness, and the webapi label plumbing — labeled generate on both
# serving paths, label-validation 400s, the sweep-vs-in-flight-generate
# regression, and the NetFlow v9/IPFIX egress round-trips.
test-conditional:
	$(GO) test ./internal/dgan -run 'Conditional|UnconditionalGenerateLabeled'
	$(GO) test ./internal/core -run 'Conditional|UnconditionalGenerateLabeled'
	$(GO) test ./internal/conformance -run 'ScenarioMatrix'
	$(GO) test ./internal/webapi -run 'TestConditionalGenerateEndToEnd|TestGenerateLabelValidation|TestSweepFailsOrFinishesFastRequests|TestStoreDownloadNetFlowV9AndIPFIX'

# Columnar trace store (DESIGN.md §13): the block/column codecs, the
# golden CSV round-trip, the corruption matrix, time-partition pruning,
# and the query layer, plus the registry/webapi/ingest integrations and
# the egress format table the store's downloads are encoded through.
test-store:
	$(GO) test ./internal/store/...
	$(GO) test ./internal/registry -run 'Store|Sweep'
	$(GO) test ./internal/webapi -run 'TraceQuery|ColumnarStore|EncodedDownload|ArtifactLRU|QueryWithout'
	$(GO) test ./internal/ingest -run TestWriteStore
	$(GO) test ./internal/trace -run 'TestStreamingEncodersMatchBatch|TestLookupFormat'

# The repository benchmark's own tests (e2ebench/, a separate module):
# a short smoke run of every workload. It writes no committed file.
test-e2ebench:
	cd e2ebench && $(GO) test ./...

# Full paper-evaluation benchmark suite (slow).
bench:
	$(GO) test -bench=. -benchmem

# One iteration of every package benchmark under internal/ (the kernel,
# critic-step, train-step, Adam-step, sampler, fast-generate, nearest-word
# and store-query rows), so a benchmark that stops compiling or starts
# failing breaks ci.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# Static analysis and vulnerability scanning. Both tools are optional:
# the targets run them when installed and skip with a notice otherwise,
# so `make ci` works on minimal containers without network access.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

ci: fmt vet staticcheck govulncheck build test test-race test-crash test-telemetry test-conformance test-conditional test-ingest test-store test-cluster fuzz bench-smoke test-e2ebench

clean:
	$(GO) clean ./...
