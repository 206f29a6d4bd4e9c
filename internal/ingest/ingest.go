package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/trace"
)

// Stats is an assembler-level snapshot: the packet-source counters plus
// the aggregated table counters and the current live/buffered gauges.
type Stats struct {
	PacketsParsed int64 `json:"packets_parsed"` // IP packets keyed into the table
	PacketsIPv4   int64 `json:"packets_ipv4"`
	PacketsIPv6   int64 `json:"packets_ipv6"`
	PacketsNonIP  int64 `json:"packets_non_ip"` // well-framed but not IP (ARP, ...)
	ParseErrors   int64 `json:"parse_errors"`   // malformed network headers
	FilesIngested int64 `json:"files_ingested"`
	FileErrors    int64 `json:"file_errors"`

	TableStats

	FlowsLive       int `json:"flows_live"`
	BufferedPackets int `json:"buffered_packets"`
}

// Assembler is the top of the ingestion pipeline: it decodes a pcap
// stream, routes packets to sharded flow tables by five-tuple hash, and
// collects emitted flows. All exported methods are safe for concurrent
// use; determinism holds whenever the per-shard packet order is
// deterministic, which sequential Ingest* calls and AddAll's
// shard-owning workers both guarantee regardless of worker count.
type Assembler struct {
	cfg Config

	mu      sync.Mutex
	shards  []*Table
	emitted [][]*Flow // parallel to shards, each in emit order
	src     sourceStats
}

// sourceStats are the pre-table counters (everything except what the
// tables themselves count).
type sourceStats struct {
	parsed, ipv4, ipv6, nonIP, parseErrors int64
	files, fileErrors                      int64
}

// New returns an assembler with cfg's bounds (zero values = defaults).
func New(cfg Config) *Assembler {
	cfg = cfg.withDefaults()
	a := &Assembler{
		cfg:     cfg,
		shards:  make([]*Table, cfg.Shards),
		emitted: make([][]*Flow, cfg.Shards),
	}
	shardCfg := cfg.shardConfig()
	for i := range a.shards {
		i := i
		a.shards[i] = NewTable(shardCfg, func(f *Flow) {
			a.emitted[i] = append(a.emitted[i], f)
			observeEmit(f)
		})
	}
	return a
}

// shardOf routes a packet by its tuple key hash. Key4 and Key6 share
// the fnv keyspace, so mixed-family captures spread over all shards.
func (a *Assembler) shardOf(rp trace.RawPacket) int {
	var h uint64
	if rp.Family == 4 {
		h = rp.V4.Tuple.Key().Hash()
	} else {
		h = rp.V6.Tuple.Key().Hash()
	}
	return int(h % uint64(len(a.shards)))
}

// Add routes one decoded packet into its shard's flow table.
func (a *Assembler) Add(rp trace.RawPacket) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.addLocked(rp)
}

func (a *Assembler) addLocked(rp trace.RawPacket) {
	switch rp.Family {
	case 4:
		a.src.ipv4++
	case 6:
		a.src.ipv6++
	default:
		a.src.nonIP++
		telPacketsNonIP.Inc()
		return
	}
	a.src.parsed++
	observePacket(rp.Family)
	a.shards[a.shardOf(rp)].Add(rp)
}

// AddAll feeds a packet batch through the shards with up to workers
// goroutines. Each worker owns whole shards and processes its shards'
// packets in batch order, so the per-shard packet sequence — and hence
// the emitted flow set and eviction order — is identical for any
// worker count, including 1.
func (a *Assembler) AddAll(packets []trace.RawPacket, workers int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if workers <= 1 || len(a.shards) == 1 {
		for _, rp := range packets {
			a.addLocked(rp)
		}
		return
	}
	if workers > len(a.shards) {
		workers = len(a.shards)
	}
	// Pre-count source stats serially (cheap), then fan the table work
	// out by shard ownership: worker w handles shards w, w+workers, ...
	routes := make([]int32, len(packets))
	for i, rp := range packets {
		switch rp.Family {
		case 4:
			a.src.ipv4++
		case 6:
			a.src.ipv6++
		default:
			a.src.nonIP++
			telPacketsNonIP.Inc()
			routes[i] = -1
			continue
		}
		a.src.parsed++
		observePacket(rp.Family)
		routes[i] = int32(a.shardOf(rp))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, rp := range packets {
				s := int(routes[i])
				if s >= 0 && s%workers == w {
					a.shards[s].Add(rp)
				}
			}
		}(w)
	}
	wg.Wait()
}

// IngestReader streams one pcap capture into the flow tables in
// constant memory. Per-packet decode failures and non-IP records are
// counted and skipped; only stream-level corruption (bad file header,
// torn record framing) returns an error. Packets ingested before such
// an error remain in the table.
func (a *Assembler) IngestReader(r io.Reader) error {
	pr, err := trace.NewPCAPReader(r)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		rp, err := pr.Next()
		switch {
		case err == io.EOF:
			return nil
		case errors.Is(err, trace.ErrNonIP):
			a.src.nonIP++
			telPacketsNonIP.Inc()
			continue
		case errors.Is(err, trace.ErrPacketParse):
			a.src.parseErrors++
			telParseErrors.Inc()
			continue
		case err != nil:
			return err
		}
		a.addLocked(rp)
	}
}

// IngestFile ingests one capture file.
func (a *Assembler) IngestFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		a.countFile(false)
		return err
	}
	defer f.Close()
	err = a.IngestReader(f)
	a.countFile(err == nil)
	if err != nil {
		return fmt.Errorf("ingest %s: %w", path, err)
	}
	return nil
}

func (a *Assembler) countFile(ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ok {
		a.src.files++
		telFilesIngested.Inc()
	} else {
		a.src.fileErrors++
		telFileErrors.Inc()
	}
}

// Flush evicts every live flow from every shard, completing the stream.
func (a *Assembler) Flush() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range a.shards {
		t.Flush()
	}
}

// Flows returns every flow emitted so far in a canonical deterministic
// order: ascending first-packet time, then key bytes, then per-shard
// emit order (a tuple torn down and reused emits multiple flows; their
// relative order is their emit order, which is deterministic because a
// tuple always lands in the same shard).
func (a *Assembler) Flows() []*Flow {
	a.mu.Lock()
	defer a.mu.Unlock()
	type tagged struct {
		f       *Flow
		emitIdx int
	}
	var all []tagged
	for _, shard := range a.emitted {
		for i, f := range shard {
			all = append(all, tagged{f, i})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		fi, fj := all[i].f, all[j].f
		if fi.FirstTime != fj.FirstTime {
			return fi.FirstTime < fj.FirstTime
		}
		ki, kj := flowKeyBytes(fi), flowKeyBytes(fj)
		if c := bytes.Compare(ki, kj); c != 0 {
			return c < 0
		}
		return all[i].emitIdx < all[j].emitIdx
	})
	out := make([]*Flow, len(all))
	for i, t := range all {
		out[i] = t.f
	}
	return out
}

// flowKeyBytes is the flow's canonical sort key: family byte then the
// compact tuple key.
func flowKeyBytes(f *Flow) []byte {
	if f.Family == 4 {
		k := f.Tuple4.Key()
		return append([]byte{4}, k[:]...)
	}
	k := f.Tuple6.Key()
	return append([]byte{6}, k[:]...)
}

// PacketTrace assembles the emitted IPv4 flows back into a time-sorted
// packet trace, the PCAP-kind training input. Call Flush first to
// include still-live flows.
func (a *Assembler) PacketTrace() *trace.PacketTrace {
	var flows []*trace.PacketFlow
	for _, f := range a.Flows() {
		if f.Family == 4 && len(f.Packets) > 0 {
			flows = append(flows, f.PacketFlow())
		}
	}
	return trace.AssemblePackets(flows)
}

// FlowTrace derives NetFlow-style records from the emitted IPv4 flows,
// the flow-kind training input. Call Flush first to include still-live
// flows.
func (a *Assembler) FlowTrace() *trace.FlowTrace {
	out := &trace.FlowTrace{}
	for _, f := range a.Flows() {
		if f.Family == 4 {
			out.Records = append(out.Records, f.Record())
		}
	}
	out.SortByStart()
	return out
}

// Stats snapshots the assembler's counters and gauges.
func (a *Assembler) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Stats{
		PacketsParsed: a.src.parsed,
		PacketsIPv4:   a.src.ipv4,
		PacketsIPv6:   a.src.ipv6,
		PacketsNonIP:  a.src.nonIP,
		ParseErrors:   a.src.parseErrors,
		FilesIngested: a.src.files,
		FileErrors:    a.src.fileErrors,
	}
	for _, t := range a.shards {
		st.TableStats.add(t.Stats())
		st.FlowsLive += t.Live()
		st.BufferedPackets += t.Buffered()
	}
	telFlowsLive.Set(float64(st.FlowsLive))
	telBuffered.Set(float64(st.BufferedPackets))
	return st
}

// Live returns the current number of live flows across shards.
func (a *Assembler) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, t := range a.shards {
		n += t.Live()
	}
	return n
}

// Buffered returns the stored packet records across shards.
func (a *Assembler) Buffered() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, t := range a.shards {
		n += t.Buffered()
	}
	return n
}
