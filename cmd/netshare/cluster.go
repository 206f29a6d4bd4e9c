// Distributed roles for the netshare CLI. A shared -cluster directory
// (an NFS mount or any common filesystem) is the whole control plane:
// the coordinator submits the chunk DAG as a durable job, workers lease
// chunks, train them, and upload checkpoints, and the coordinator
// assembles the finished model. Determinism makes the division of labor
// invisible: the assembled model is bitwise identical to -role
// standalone, even when workers crash mid-chunk and their leases are
// reclaimed.
//
//	netshare -role coordinator -cluster /mnt/q -kind netflow -dataset ugr16 -records 2000 -out synthetic.csv
//	netshare -role worker -cluster /mnt/q
//	netshare -role worker -cluster /mnt/q -worker-id gpu-2 -coordinator-url http://head:8080
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
)

// clusterOpts carries the CLI flags the distributed roles need.
type clusterOpts struct {
	dir      string // -cluster
	jobID    string // -job
	workerID string // -worker-id
	ttl      time.Duration
	quiet    time.Duration
	coordURL string

	kind     string
	dataset  string
	inPath   string
	records  int
	cfg      core.Config
	maxRetry int
	genSize  int
	outPath  string
	format   trace.Format
	ipBase   string
}

// coordinatorPublicPackets matches the standalone CLI's public corpus
// size so coordinator-assembled models are bitwise identical to
// -role standalone runs of the same flags.
const coordinatorPublicPackets = 4000

// runCoordinator submits the job, waits for workers to drain it, then
// assembles the model and writes the synthetic trace exactly like a
// standalone run.
func runCoordinator(o clusterOpts) error {
	if o.dir == "" {
		return fmt.Errorf("-role coordinator requires -cluster <dir>")
	}
	q, err := cluster.OpenQueue(o.dir)
	if err != nil {
		return err
	}
	spec := cluster.JobSpec{
		ID:            o.jobID,
		Kind:          o.kind,
		Dataset:       o.dataset,
		Records:       o.records,
		DatasetSeed:   o.cfg.Seed,
		PublicPackets: coordinatorPublicPackets,
		MaxRetries:    o.maxRetry,
		Config:        o.cfg,
	}
	if o.inPath != "" {
		csv, err := os.ReadFile(o.inPath)
		if err != nil {
			return err
		}
		spec.CSV = string(csv)
	}
	coord := &cluster.Coordinator{Queue: q}
	switch err := coord.Submit(spec); {
	case err == nil:
		log.Printf("submitted job %s (%d chunks) to %s", spec.ID, spec.Chunks(), o.dir)
	case strings.Contains(err.Error(), "already exists"):
		// Re-running the coordinator after a crash re-attaches to the
		// submitted job rather than double-submitting.
		log.Printf("job %s already submitted; waiting for workers", spec.ID)
	default:
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if _, err := coord.Wait(ctx, spec.ID); err != nil {
		return err
	}
	log.Printf("job %s complete; assembling model", spec.ID)

	switch o.kind {
	case "netflow":
		syn, err := coord.AssembleFlow(spec.ID)
		if err != nil {
			return err
		}
		gen := syn.Generate(o.genSize)
		if o.ipBase != "" {
			base, bits, err := parseCIDR(o.ipBase)
			if err != nil {
				return err
			}
			core.TransformIPs(gen, base, bits)
		}
		if err := writeTrace(o.outPath, o.format, gen); err != nil {
			return err
		}
		log.Printf("wrote %d flow records to %s (%s)", len(gen.Records), o.outPath, o.format.Name)
	case "pcap":
		syn, err := coord.AssemblePacket(spec.ID)
		if err != nil {
			return err
		}
		gen := syn.Generate(o.genSize)
		if err := writeTrace(o.outPath, o.format, gen); err != nil {
			return err
		}
		log.Printf("wrote %d packets to %s (%s)", len(gen.Packets), o.outPath, o.format.Name)
	}
	return nil
}

// runWorker drains the queue until interrupted (or until -worker-quiet
// of idleness, when set).
func runWorker(o clusterOpts) error {
	if o.dir == "" {
		return fmt.Errorf("-role worker requires -cluster <dir>")
	}
	q, err := cluster.OpenQueue(o.dir)
	if err != nil {
		return err
	}
	id := o.workerID
	if id == "" {
		host, _ := os.Hostname()
		id = sanitizeWorkerID(fmt.Sprintf("%s-%d", host, os.Getpid()))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.coordURL != "" {
		go heartbeatCoordinator(ctx, o.coordURL, id, o.ttl)
	}
	w := &cluster.Worker{
		ID:    id,
		Queue: q,
		TTL:   o.ttl,
		Quiet: o.quiet,
		OnTask: func(l cluster.Lease, err error) {
			if err != nil {
				log.Printf("worker %s: job %s chunk %d attempt %d failed: %v", id, l.Job, l.Chunk, l.Attempt, err)
			} else {
				log.Printf("worker %s: job %s chunk %d done (attempt %d)", id, l.Job, l.Chunk, l.Attempt)
			}
		},
	}
	log.Printf("worker %s draining %s (lease ttl %v)", id, o.dir, o.ttl)
	n, err := w.Run(ctx)
	log.Printf("worker %s: %d chunk(s) completed", id, n)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// sanitizeWorkerID maps an arbitrary host-derived string onto the
// queue's name alphabet.
func sanitizeWorkerID(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_':
		case c == '.' && i > 0:
		default:
			out[i] = '-'
		}
	}
	if len(out) == 0 {
		return "worker"
	}
	if len(out) > 64 {
		out = out[:64]
	}
	return string(out)
}

// heartbeatCoordinator registers the worker with the coordinator's web
// API (in addition to the direct queue-directory heartbeat) so the
// fleet shows up at GET /api/v1/cluster even for workers on machines
// that only share the queue mount.
func heartbeatCoordinator(ctx context.Context, baseURL, id string, ttl time.Duration) {
	interval := ttl / 3
	if interval <= 0 {
		interval = 10 * time.Second
	}
	url := strings.TrimSuffix(baseURL, "/") + "/api/v1/cluster/workers/" + id
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
		if err != nil {
			log.Printf("coordinator heartbeat: %v", err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err != nil {
			log.Printf("coordinator heartbeat: %v", err)
		} else {
			resp.Body.Close()
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}
