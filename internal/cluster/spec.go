package cluster

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/trace"
)

// JobSpec is the durable description of one distributed training job.
// It must pin everything a worker needs to rebuild the training plan
// deterministically — dataset identity and seed, the public-corpus
// size, and the full model configuration — because every worker (and
// the assembling coordinator) reconstructs the plan independently from
// this record alone.
type JobSpec struct {
	// ID names the job; it becomes a directory name in the queue.
	ID string `json:"id"`
	// Kind selects the pipeline: "netflow" or "pcap".
	Kind string `json:"kind"`
	// Dataset names a built-in preset (datasets.FlowByName /
	// PacketByName). Mutually exclusive with CSV.
	Dataset string `json:"dataset,omitempty"`
	// Records is the preset sample count (records for netflow, packets
	// for pcap).
	Records int `json:"records,omitempty"`
	// DatasetSeed seeds the preset sampler.
	DatasetSeed int64 `json:"datasetSeed,omitempty"`
	// CSV carries an inline input trace in the repo CSV schema, as an
	// alternative to a named preset.
	CSV string `json:"csv,omitempty"`
	// PublicPackets sizes the public CAIDA corpus for the IP2Vec
	// embedding; it must be identical on every worker, hence pinned
	// here. Zero means the default.
	PublicPackets int `json:"publicPackets,omitempty"`
	// MaxRetries is the per-chunk training retry budget: a chunk may
	// consume MaxRetries+1 attempts (leases) before the job fails.
	MaxRetries int `json:"maxRetries"`
	// Config is the full NetShare training configuration.
	Config core.Config `json:"config"`
}

const (
	defaultPublicPackets = 1500
	maxRetriesCap        = 16
)

// Validate rejects specs a worker could not execute deterministically.
func (s JobSpec) Validate() error {
	if err := validName(s.ID); err != nil {
		return fmt.Errorf("cluster: job id: %w", err)
	}
	if s.Kind != "netflow" && s.Kind != "pcap" {
		return fmt.Errorf("cluster: job kind must be netflow or pcap, got %q", s.Kind)
	}
	if (s.Dataset == "") == (s.CSV == "") {
		return fmt.Errorf("cluster: job needs exactly one of dataset or csv input")
	}
	if s.Dataset != "" && s.Records <= 0 {
		return fmt.Errorf("cluster: dataset input needs a positive record count")
	}
	if s.PublicPackets < 0 {
		return fmt.Errorf("cluster: PublicPackets must be >= 0")
	}
	if s.MaxRetries < 0 || s.MaxRetries > maxRetriesCap {
		return fmt.Errorf("cluster: MaxRetries must be in [0,%d], got %d", maxRetriesCap, s.MaxRetries)
	}
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if s.Config.DP != nil {
		return fmt.Errorf("cluster: DP jobs cannot be distributed (single-process epsilon accounting); train standalone")
	}
	if s.Config.IPVectorEncoding {
		return fmt.Errorf("cluster: IPVectorEncoding jobs cannot be distributed; train standalone")
	}
	return nil
}

// Chunks returns the number of chunk tasks the job fans out into.
func (s JobSpec) Chunks() int { return s.Config.Chunks }

// trainPlan is the kind-independent task surface shared by
// core.FlowPlan and core.PacketPlan.
type trainPlan interface {
	Chunks() int
	TrainSeedChunk() ([]byte, error)
	FineTuneChunk(idx int, seed []byte) ([]byte, error)
}

// publicCorpus rebuilds the shared public embedding corpus.
func (s JobSpec) publicCorpus() *trace.PacketTrace {
	n := s.PublicPackets
	if n <= 0 {
		n = defaultPublicPackets
	}
	// Seed+500 is the repo-wide convention for deriving the public
	// corpus stream from the model seed (cmd/netshare, webapi).
	return datasets.CAIDAChicago(n, s.Config.Seed+500)
}

// flowInput loads the job's NetFlow input trace.
func (s JobSpec) flowInput() (*trace.FlowTrace, error) {
	if s.CSV != "" {
		t, err := trace.ReadFlowCSV(strings.NewReader(s.CSV))
		if err != nil {
			return nil, fmt.Errorf("cluster: job %s csv: %w", s.ID, err)
		}
		return t, nil
	}
	seed := s.DatasetSeed
	if seed == 0 {
		seed = 1
	}
	t := datasets.FlowByName(s.Dataset, s.Records, seed)
	if t == nil {
		return nil, fmt.Errorf("cluster: unknown flow dataset %q", s.Dataset)
	}
	return t, nil
}

// packetInput loads the job's PCAP input trace.
func (s JobSpec) packetInput() (*trace.PacketTrace, error) {
	if s.CSV != "" {
		t, err := trace.ReadPacketCSV(strings.NewReader(s.CSV))
		if err != nil {
			return nil, fmt.Errorf("cluster: job %s csv: %w", s.ID, err)
		}
		return t, nil
	}
	seed := s.DatasetSeed
	if seed == 0 {
		seed = 1
	}
	t := datasets.PacketByName(s.Dataset, s.Records, seed)
	if t == nil {
		return nil, fmt.Errorf("cluster: unknown packet dataset %q", s.Dataset)
	}
	return t, nil
}

// buildPlan reconstructs the deterministic training plan from the spec.
// Every process that calls this with the same spec gets a plan whose
// chunk tasks produce identical bytes.
func (s JobSpec) buildPlan() (trainPlan, error) {
	switch s.Kind {
	case "netflow":
		t, err := s.flowInput()
		if err != nil {
			return nil, err
		}
		return core.PlanFlowTraining(t, s.publicCorpus(), s.Config)
	case "pcap":
		t, err := s.packetInput()
		if err != nil {
			return nil, err
		}
		return core.PlanPacketTraining(t, s.publicCorpus(), s.Config)
	}
	return nil, fmt.Errorf("cluster: job kind %q", s.Kind)
}

// FlowPlan rebuilds the typed plan for assembling a netflow job.
func (s JobSpec) FlowPlan() (*core.FlowPlan, error) {
	if s.Kind != "netflow" {
		return nil, fmt.Errorf("cluster: job %s is %s, not netflow", s.ID, s.Kind)
	}
	t, err := s.flowInput()
	if err != nil {
		return nil, err
	}
	return core.PlanFlowTraining(t, s.publicCorpus(), s.Config)
}

// PacketPlan rebuilds the typed plan for assembling a pcap job.
func (s JobSpec) PacketPlan() (*core.PacketPlan, error) {
	if s.Kind != "pcap" {
		return nil, fmt.Errorf("cluster: job %s is %s, not pcap", s.ID, s.Kind)
	}
	t, err := s.packetInput()
	if err != nil {
		return nil, err
	}
	return core.PlanPacketTraining(t, s.publicCorpus(), s.Config)
}
