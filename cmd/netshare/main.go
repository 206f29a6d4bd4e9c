// Command netshare trains a NetShare model on a trace CSV (or a built-in
// synthetic dataset) and writes a synthetic trace CSV.
//
// Usage:
//
//	netshare -kind netflow -dataset ugr16 -records 2000 -out synthetic.csv
//	netshare -kind pcap -in real.csv -out synthetic.csv -chunks 5
//	netshare -kind netflow -dataset ugr16 -dp -epsilon-noise 0.7 -out dp.csv
//	netshare -kind netflow -dataset ugr16 -checkpoint-dir ckpt -out synthetic.csv
//	netshare -kind netflow -dataset ugr16 -checkpoint-dir ckpt -resume -out synthetic.csv
//	netshare -kind netflow -dataset ugr16 -out synthetic.csv -metrics-out metrics.json
//	netshare -kind netflow -dataset ugr16 -registry reg -save-model ugr16-v1 -out synthetic.csv
//	netshare -kind netflow -registry reg -load-model ugr16-v1 -gen 5000 -out more.csv
//	netshare -kind pcap -ingest-pcap capture.pcap -out synthetic.csv
//	netshare -kind netflow -ingest-watch /var/spool/captures -registry reg -save-model live-v1 -out synthetic.csv
//	netshare -kind netflow -dataset ugr16 -out synthetic.csv -store-out synthetic.store
//	netshare -kind netflow -store-in synthetic.store -out more.csv
//	netshare -kind pcap -ingest-pcap capture.pcap -ingest-store real.store -out synthetic.csv
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ingest"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netshare: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run holds the whole CLI body and returns errors instead of calling
// log.Fatal so the deferred profile writers always flush.
func run(args []string) error {
	fs := flag.NewFlagSet("netshare", flag.ExitOnError)
	var (
		kind      = fs.String("kind", "netflow", "trace kind: netflow or pcap")
		inPath    = fs.String("in", "", "input trace CSV (mutually exclusive with -dataset)")
		dataset   = fs.String("dataset", "", "built-in dataset: ugr16|cidds|ton (netflow) or caida|dc|ca (pcap)")
		records   = fs.Int("records", 2000, "records/packets to synthesize the built-in dataset with")
		outPath   = fs.String("out", "synthetic.csv", "output CSV path")
		genSize   = fs.Int("gen", 2000, "records/packets to generate")
		chunks    = fs.Int("chunks", 5, "number of fixed-time chunks M (1 = NetShare-V0)")
		seedSteps = fs.Int("seed-steps", 600, "seed-chunk generator steps")
		ftSteps   = fs.Int("finetune-steps", 150, "fine-tune generator steps per chunk")
		maxLen    = fs.Int("maxlen", 6, "max sequence length per flow sample")
		seed      = fs.Int64("seed", 1, "random seed")
		format    = fs.String("format", "csv", "output format: csv, pcap (packet traces), or netflow5|netflow9|ipfix (flow traces)")
		cond      = fs.Bool("conditional", false, "train the flow GAN with scenario-label conditioning (flow traces only); the trained model generates per-label slices via -label")
		labelName = fs.String("label", "", "generate only this scenario label (e.g. dos); requires a flow model trained with -conditional")
		storeIn   = fs.String("store-in", "", "input columnar trace store directory (mutually exclusive with -in/-dataset)")
		storeOut  = fs.String("store-out", "", "also write the generated trace as a columnar trace store at this directory")
		savePath  = fs.String("save", "", "save the trained model to this path")
		loadPath  = fs.String("load", "", "skip training; load a model saved with -save")
		regDir    = fs.String("registry", "", "durable model registry directory for -save-model/-load-model")
		saveName  = fs.String("save-model", "", "store the trained model in -registry under this name")
		loadName  = fs.String("load-model", "", "skip training; load this named model from -registry")
		dp        = fs.Bool("dp", false, "train with differential privacy (DP-SGD)")
		dpNoise   = fs.Float64("epsilon-noise", 0.7, "DP-SGD noise multiplier sigma")
		dpTarget  = fs.Float64("target-epsilon", 0, "calibrate sigma for this target epsilon (overrides -epsilon-noise)")
		dpPre     = fs.Bool("dp-pretrain", true, "pre-train on public data before DP fine-tuning")
		ipBase    = fs.String("ip-transform", "", "optional CIDR-style base (e.g. 10.0.0.0/8) to remap generated IPs into")
		par       = fs.Int("parallelism", 0, "worker count for chunk fine-tunes, generate lots and DP-SGD sample lanes (0 = all CPUs, 1 = serial); any value yields bitwise-identical output for a given -seed")
		ckptDir   = fs.String("checkpoint-dir", "", "directory for per-chunk training checkpoints (empty disables)")
		resume    = fs.Bool("resume", false, "resume training from -checkpoint-dir, skipping completed chunks")
		maxRetry  = fs.Int("max-retries", 0, "with -role coordinator, the job's per-chunk re-lease budget: a chunk whose worker crashes or fails is leased again up to this many times before the job fails")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProf   = fs.String("memprofile", "", "write a heap profile to this path on exit")
		metricsJS = fs.String("metrics-out", "", "write the run's telemetry snapshot (counters, phase timers, per-chunk loss curves) to this JSON path on exit")

		ingestPCAP  = fs.String("ingest-pcap", "", "train on a pcap capture: stream it through the flow assembler instead of -in/-dataset")
		ingestWatch = fs.String("ingest-watch", "", "train on a rotating-capture directory: watch it, ingest completed pcap files, stop after -ingest-quiet of silence")
		ingestQuiet = fs.Duration("ingest-quiet", 2*time.Second, "with -ingest-watch, stop watching after this long without a new completed file")
		ingMaxFlows = fs.Int("ingest-max-flows", 0, "flow-table bound on live flows (0 = default)")
		ingMaxPkts  = fs.Int("ingest-max-flow-packets", 0, "flow-table bound on stored packets per flow (0 = default)")
		ingMaxBuf   = fs.Int("ingest-max-buffered", 0, "flow-table hard bound on total buffered packet records (0 = default)")
		ingIdle     = fs.Duration("ingest-idle-timeout", 0, "flow idle timeout on the capture clock (0 = default 60s)")
		ingShards   = fs.Int("ingest-shards", 0, "flow-table shard count for parallel feeding (0 = 1)")
		ingStore    = fs.String("ingest-store", "", "with -ingest-pcap/-ingest-watch, also persist the assembled real trace as a columnar store at this directory")

		role        = fs.String("role", "standalone", "run mode: standalone, coordinator (submit a cluster job and assemble the result), or worker (lease and train cluster chunks)")
		clusterDir  = fs.String("cluster", "", "shared cluster queue directory for -role coordinator|worker")
		jobID       = fs.String("job", "job-1", "cluster job name for -role coordinator")
		workerID    = fs.String("worker-id", "", "worker name for -role worker (default <hostname>-<pid>)")
		leaseTTL    = fs.Duration("lease-ttl", 30*time.Second, "cluster chunk lease duration; a crashed worker's lease is reclaimed after it expires")
		workerQuiet = fs.Duration("worker-quiet", 0, "with -role worker, exit after this long without acquiring work (0 = run until interrupted)")
		coordURL    = fs.String("coordinator-url", "", "with -role worker, also register/heartbeat over this coordinator web API")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The output format is resolved before any work, so a bad -format
	// fails before training and before -out is created.
	outKind, ok := trace.ParseKind(*kind)
	if !ok {
		return fmt.Errorf("unknown -kind %q (want netflow or pcap)", *kind)
	}
	outFmt, err := trace.LookupFormat(*format, outKind)
	if err != nil {
		return fmt.Errorf("-format: %w", err)
	}
	if *par < 0 {
		return fmt.Errorf("-parallelism must be >= 0, got %d", *par)
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if *maxRetry < 0 {
		return fmt.Errorf("-max-retries must be >= 0, got %d", *maxRetry)
	}
	if *maxRetry != 0 && *role != "coordinator" {
		// Local chunk tasks fail only on deterministic errors that a
		// retry would replay; re-leasing is the cluster queue's business.
		return fmt.Errorf("-max-retries applies to -role coordinator only")
	}
	if (*saveName != "" || *loadName != "") && *regDir == "" {
		return fmt.Errorf("-save-model/-load-model require -registry")
	}
	if *ingestPCAP != "" && *ingestWatch != "" {
		return fmt.Errorf("-ingest-pcap and -ingest-watch are mutually exclusive")
	}
	ingesting := *ingestPCAP != "" || *ingestWatch != ""
	if ingesting && (*inPath != "" || *dataset != "") {
		return fmt.Errorf("-ingest-pcap/-ingest-watch replace -in/-dataset")
	}
	if *storeIn != "" && (*inPath != "" || *dataset != "" || ingesting) {
		return fmt.Errorf("-store-in replaces -in/-dataset/-ingest-*")
	}
	if *ingStore != "" && !ingesting {
		return fmt.Errorf("-ingest-store requires -ingest-pcap or -ingest-watch")
	}
	if *loadName != "" && *loadPath != "" {
		return fmt.Errorf("-load and -load-model are mutually exclusive")
	}
	if (*cond || *labelName != "") && *kind != "netflow" {
		return fmt.Errorf("-conditional/-label are flow-only (packet traces carry no scenario labels)")
	}
	var reg *registry.Registry
	if *regDir != "" {
		var err error
		if reg, err = registry.Open(*regDir); err != nil {
			return fmt.Errorf("-registry: %w", err)
		}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *metricsJS != "" {
		// Deferred so the snapshot lands even when a later stage errors:
		// a failed run's partial counters are exactly what a post-mortem
		// wants to see.
		defer func() {
			if err := writeMetrics(*metricsJS); err != nil {
				log.Printf("-metrics-out: %v", err)
			} else {
				log.Printf("wrote telemetry snapshot to %s", *metricsJS)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Printf("-memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("-memprofile: %v", err)
			}
		}()
	}

	cfg := core.DefaultConfig()
	cfg.Parallelism = *par
	cfg.Chunks = *chunks
	cfg.SeedSteps = *seedSteps
	cfg.FineTuneSteps = *ftSteps
	cfg.MaxLen = *maxLen
	cfg.Seed = *seed
	cfg.Conditional = *cond
	if *dp {
		cfg.Chunks = 1
		noise := *dpNoise
		if *dpTarget > 0 {
			noise = cfg.NoiseForTargetEpsilon(*dpTarget, 1e-5, *records)
			log.Printf("calibrated sigma=%.3f for target epsilon=%.1f over %d DP steps",
				noise, *dpTarget, cfg.DPSteps())
		}
		cfg.DP = &core.DPConfig{
			NoiseMultiplier: noise,
			ClipNorm:        1.0,
			Delta:           1e-5,
			Pretrain:        *dpPre,
			PretrainSteps:   *seedSteps / 2,
		}
	}
	if *role != "standalone" {
		if *dp {
			return fmt.Errorf("-dp is not supported with -role %s (DP keeps its privacy accountant in one process)", *role)
		}
		if ingesting || *storeIn != "" {
			return fmt.Errorf("-ingest-*/-store-in are not supported with -role %s", *role)
		}
		o := clusterOpts{
			dir: *clusterDir, jobID: *jobID, workerID: *workerID,
			ttl: *leaseTTL, quiet: *workerQuiet, coordURL: *coordURL,
			kind: *kind, dataset: *dataset, inPath: *inPath, records: *records,
			cfg: cfg, maxRetry: *maxRetry, genSize: *genSize,
			outPath: *outPath, format: outFmt, ipBase: *ipBase,
		}
		switch *role {
		case "coordinator":
			return runCoordinator(o)
		case "worker":
			return runWorker(o)
		default:
			return fmt.Errorf("unknown -role %q (want standalone, coordinator, or worker)", *role)
		}
	}

	public := datasets.CAIDAChicago(4000, *seed+500)
	ex := core.Executor{Dir: *ckptDir, Resume: *resume}

	// Live ingestion: assemble flows from a capture (or a rotating
	// capture directory) before training, replacing the CSV readers.
	var asm *ingest.Assembler
	if ingesting {
		asm = ingest.New(ingest.Config{
			MaxFlows:           *ingMaxFlows,
			MaxFlowPackets:     *ingMaxPkts,
			MaxBufferedPackets: *ingMaxBuf,
			IdleTimeout:        ingIdle.Microseconds(),
			Shards:             *ingShards,
		})
		if *ingestPCAP != "" {
			if err := asm.IngestFile(*ingestPCAP); err != nil {
				return err
			}
		} else {
			files, err := asm.Watch(context.Background(), ingest.WatchConfig{
				Dir:   *ingestWatch,
				Quiet: *ingestQuiet,
				OnFile: func(path string, err error) {
					if err != nil {
						log.Printf("ingest %s: %v", path, err)
					} else {
						log.Printf("ingested %s", path)
					}
				},
			})
			if err != nil {
				return err
			}
			if files == 0 {
				return fmt.Errorf("-ingest-watch: no completed capture files appeared in %s", *ingestWatch)
			}
		}
		asm.Flush()
		st := asm.Stats()
		log.Printf("ingest: %d packets (%d v4, %d v6, %d non-IP, %d parse errors) -> %d flows (%d idle, %d teardown, %d capacity, %d flush; %d truncated)",
			st.PacketsParsed+st.PacketsNonIP+st.ParseErrors, st.PacketsIPv4, st.PacketsIPv6, st.PacketsNonIP, st.ParseErrors,
			st.FlowsEmitted, st.EvictedIdle, st.EvictedTeardown, st.EvictedCapacity, st.Flushed, st.FlowsTruncated)
		if *ingStore != "" {
			var rows int64
			var err error
			if *kind == "pcap" {
				rows, err = asm.WritePacketStore(*ingStore, store.Options{})
			} else {
				rows, err = asm.WriteFlowStore(*ingStore, store.Options{})
			}
			if err != nil {
				return fmt.Errorf("-ingest-store: %w", err)
			}
			log.Printf("stored %d assembled rows as a columnar store at %s", rows, *ingStore)
		}
	}

	src := modelSource{reg: reg, regDir: *regDir, name: *loadName, path: *loadPath, par: *par}
	var syn synthesizer
	var generate func() (trace.Source, int, error)
	switch outKind {
	case trace.KindNetFlow:
		fsyn, err := obtain(src, "flow", core.LoadFlowSynthesizer,
			func() (*core.FlowSynthesizer, error) {
				real, err := loadFlow(asm, *inPath, *storeIn, *dataset, *records, *seed)
				if err != nil {
					return nil, err
				}
				plan, err := core.PlanFlowTraining(real, public, cfg)
				if err != nil {
					return nil, err
				}
				return plan.Train(ex)
			})
		if err != nil {
			return err
		}
		syn, generate = fsyn, func() (trace.Source, int, error) {
			gen, err := generateFlow(fsyn, *genSize, *labelName)
			if err != nil {
				return nil, 0, err
			}
			if *ipBase != "" {
				base, bits, err := parseCIDR(*ipBase)
				if err != nil {
					return nil, 0, err
				}
				core.TransformIPs(gen, base, bits)
			}
			return gen, len(gen.Records), nil
		}
	case trace.KindPCAP:
		psyn, err := obtain(src, "packet", core.LoadPacketSynthesizer,
			func() (*core.PacketSynthesizer, error) {
				real, err := loadPacket(asm, *inPath, *storeIn, *dataset, *records, *seed)
				if err != nil {
					return nil, err
				}
				plan, err := core.PlanPacketTraining(real, public, cfg)
				if err != nil {
					return nil, err
				}
				return plan.Train(ex)
			})
		if err != nil {
			return err
		}
		syn, generate = psyn, func() (trace.Source, int, error) {
			gen := psyn.Generate(*genSize)
			return gen, len(gen.Packets), nil
		}
	}
	if *savePath != "" {
		if err := saveModel(*savePath, syn.Save); err != nil {
			return err
		}
		log.Printf("saved model to %s", *savePath)
	}
	if *saveName != "" {
		if err := putRegistryModel(reg, *saveName, syn.Save); err != nil {
			return fmt.Errorf("-save-model: %w", err)
		}
		log.Printf("stored model %q in registry %s", *saveName, *regDir)
	}
	gen, n, err := generate()
	if err != nil {
		return err
	}
	if err := writeTrace(*outPath, outFmt, gen); err != nil {
		return err
	}
	log.Printf("wrote %d records to %s (%s)", n, *outPath, outFmt.Name)
	if *storeOut != "" {
		if _, err := store.Write(*storeOut, gen, store.Options{}); err != nil {
			return fmt.Errorf("-store-out: %w", err)
		}
		log.Printf("wrote columnar store to %s", *storeOut)
	}
	return nil
}

// synthesizer is what the CLI needs of a flow or packet synthesizer
// beyond generation.
type synthesizer interface {
	Save(io.Writer) error
	SetParallelism(int)
	Stats() core.Stats
}

// modelSource is where -load-model (name, from reg) or -load (path)
// points; with neither set, obtain trains.
type modelSource struct {
	reg    *registry.Registry
	regDir string
	name   string
	path   string
	par    int
}

// obtain loads the model of kind want ("flow" or "packet") with load, or
// trains one with train.
func obtain[S synthesizer](m modelSource, want string, load func(io.Reader) (S, error), train func() (S, error)) (S, error) {
	var syn, none S
	switch {
	case m.name != "":
		framed, info, err := m.reg.ModelBytes(m.name)
		if err != nil {
			return none, fmt.Errorf("-load-model: %w", err)
		}
		if info.Kind != want {
			return none, fmt.Errorf("-load-model: %q is a %s model, need %s", m.name, info.Kind, want)
		}
		if syn, err = load(bytes.NewReader(framed)); err != nil {
			return none, fmt.Errorf("-load-model: %w", err)
		}
		log.Printf("loaded model %q from registry %s", m.name, m.regDir)
	case m.path != "":
		f, err := os.Open(m.path)
		if err != nil {
			return none, err
		}
		defer f.Close()
		if syn, err = load(f); err != nil {
			return none, err
		}
		log.Printf("loaded model from %s", m.path)
	default:
		syn, err := train()
		if err != nil {
			return none, err
		}
		reportStats(syn.Stats())
		return syn, nil
	}
	syn.SetParallelism(m.par)
	return syn, nil
}

func reportStats(st core.Stats) {
	log.Printf("trained %d chunk model(s): cpu=%v wall=%v epsilon=%.2f",
		len(st.ChunkSamples), st.CPUTime.Round(1e6), st.WallTime.Round(1e6), st.Epsilon)
	resumed := 0
	for _, r := range st.ChunkResumed {
		if r {
			resumed++
		}
	}
	if resumed > 0 {
		log.Printf("resumed %d chunk(s) from checkpoints", resumed)
	}
}

func loadFlow(asm *ingest.Assembler, inPath, storeIn, dataset string, records int, seed int64) (*trace.FlowTrace, error) {
	if asm != nil {
		t := asm.FlowTrace()
		if len(t.Records) == 0 {
			return nil, fmt.Errorf("ingest produced no IPv4 flow records to train on")
		}
		return t, nil
	}
	if storeIn != "" {
		s, err := store.Open(storeIn)
		if err != nil {
			return nil, fmt.Errorf("-store-in: %w", err)
		}
		if s.Kind() != trace.KindNetFlow {
			return nil, fmt.Errorf("-store-in: %s holds a %s trace, need netflow", storeIn, s.Kind())
		}
		return s.FlowRecords()
	}
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadFlowCSV(f)
	}
	if dataset == "" {
		return nil, fmt.Errorf("need -in or -dataset")
	}
	t := datasets.FlowByName(dataset, records, seed)
	if t == nil {
		return nil, fmt.Errorf("unknown netflow dataset %q", dataset)
	}
	return t, nil
}

func loadPacket(asm *ingest.Assembler, inPath, storeIn, dataset string, packets int, seed int64) (*trace.PacketTrace, error) {
	if asm != nil {
		t := asm.PacketTrace()
		if len(t.Packets) == 0 {
			return nil, fmt.Errorf("ingest produced no IPv4 packets to train on")
		}
		return t, nil
	}
	if storeIn != "" {
		s, err := store.Open(storeIn)
		if err != nil {
			return nil, fmt.Errorf("-store-in: %w", err)
		}
		if s.Kind() != trace.KindPCAP {
			return nil, fmt.Errorf("-store-in: %s holds a %s trace, need pcap", storeIn, s.Kind())
		}
		return s.PacketRecords()
	}
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadPacketCSV(f)
	}
	if dataset == "" {
		return nil, fmt.Errorf("need -in or -dataset")
	}
	t := datasets.PacketByName(dataset, packets, seed)
	if t == nil {
		return nil, fmt.Errorf("unknown pcap dataset %q", dataset)
	}
	return t, nil
}

// writeTrace encodes src to path in format f.
func writeTrace(path string, f trace.Format, src trace.Source) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Encode(file, src); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// generateFlow runs unconditional or scenario-pinned generation per the
// -label flag.
func generateFlow(syn *core.FlowSynthesizer, n int, label string) (*trace.FlowTrace, error) {
	if label == "" {
		return syn.Generate(n), nil
	}
	l, ok := trace.ParseLabel(label)
	if !ok {
		return nil, fmt.Errorf("-label: unknown scenario label %q", label)
	}
	if !syn.Conditional() {
		return nil, fmt.Errorf("-label: the model was not trained with -conditional")
	}
	return syn.GenerateLabeled(n, l)
}

// writeMetrics dumps the global telemetry registry as indented JSON.
func writeMetrics(path string) error {
	data, err := json.MarshalIndent(telemetry.Default.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// saveModel persists a model container atomically: the synthesizer
// serializes into memory, then the bytes land on disk via the shared
// temp-file + fsync + rename discipline, so an interrupted save can
// never leave a torn model under the final name.
func saveModel(path string, save func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return err
	}
	return container.AtomicWrite(container.OSFS{}, path, buf.Bytes())
}

// putRegistryModel stores a trained model in the durable registry.
func putRegistryModel(reg *registry.Registry, name string, save func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return err
	}
	_, err := reg.PutModel(name, buf.Bytes())
	return err
}

func parseCIDR(s string) (trace.IPv4, int, error) {
	var a, b, c, d, bits int
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d/%d", &a, &b, &c, &d, &bits); err != nil {
		return 0, 0, fmt.Errorf("invalid CIDR %q: %w", s, err)
	}
	if bits < 0 || bits > 32 {
		return 0, 0, fmt.Errorf("invalid mask length %d", bits)
	}
	return trace.IPv4FromBytes(byte(a), byte(b), byte(c), byte(d)), bits, nil
}
