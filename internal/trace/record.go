package trace

import (
	"cmp"
	"fmt"
	"slices"
)

// Label classifies a flow record as benign or one of the attack classes the
// paper's labeled datasets (CIDDS, TON) carry.
type Label uint8

// Labels across the labeled datasets. Benign is zero so unlabeled traces
// need no special casing.
const (
	Benign Label = iota
	DoS
	BruteForce
	PortScan
	Backdoor
	DDoS
	Injection
	MITM
	Password
	Ransomware
	Scanning
	XSS
	NumLabels // sentinel: count of defined labels
)

var labelNames = [...]string{
	"benign", "dos", "bruteforce", "portscan", "backdoor", "ddos",
	"injection", "mitm", "password", "ransomware", "scanning", "xss",
}

// String returns the lowercase label name.
func (l Label) String() string {
	if int(l) < len(labelNames) {
		return labelNames[l]
	}
	return fmt.Sprintf("label(%d)", uint8(l))
}

// IsAttack reports whether the label denotes malicious traffic.
func (l Label) IsAttack() bool { return l != Benign }

// ParseLabel maps a lowercase label name ("dos", "portscan", ...) back to
// its Label value. The second result is false for unknown names.
func ParseLabel(s string) (Label, bool) {
	for l := Benign; l < NumLabels; l++ {
		if labelNames[l] == s {
			return l, true
		}
	}
	return Benign, false
}

// Packet is one IPv4 packet header record plus its capture timestamp. Times
// are microseconds from the start of the trace; sizes are the IP total
// length in bytes.
type Packet struct {
	Time  int64 // microseconds since trace start
	Tuple FiveTuple
	Size  int   // IP total length, bytes
	TTL   uint8 // time to live
	Flags uint8 // IP flags (bit 1 = DF), kept for header completeness
}

// FlowRecord is one NetFlow-style flow header record. A long-lived flow can
// produce several records with the same tuple (across or within epochs),
// exactly the effect Figure 1a measures.
type FlowRecord struct {
	Tuple    FiveTuple
	Start    int64 // flow start, microseconds since trace start
	Duration int64 // microseconds
	Packets  int64
	Bytes    int64
	Label    Label
}

// End returns the record's end time.
func (fr FlowRecord) End() int64 { return fr.Start + fr.Duration }

// Kind distinguishes packet-header traces (PCAP) from flow-header traces
// (NetFlow).
type Kind int

// Trace kinds.
const (
	KindPCAP Kind = iota
	KindNetFlow
)

// String names the kind.
func (k Kind) String() string {
	if k == KindPCAP {
		return "pcap"
	}
	return "netflow"
}

// ParseKind returns the kind whose String is s.
func ParseKind(s string) (Kind, bool) {
	for _, k := range []Kind{KindPCAP, KindNetFlow} {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// PacketTrace is an ordered packet header trace.
type PacketTrace struct {
	Packets []Packet
}

// SortByTime orders packets by timestamp (stable), the post-processing step
// that reassembles generated flows into a trace.
func (t *PacketTrace) SortByTime() {
	slices.SortStableFunc(t.Packets, func(a, b Packet) int { return cmp.Compare(a.Time, b.Time) })
}

// Duration returns the trace's time span in microseconds.
func (t *PacketTrace) Duration() int64 {
	if len(t.Packets) == 0 {
		return 0
	}
	minT, maxT := t.Packets[0].Time, t.Packets[0].Time
	for _, p := range t.Packets {
		if p.Time < minT {
			minT = p.Time
		}
		if p.Time > maxT {
			maxT = p.Time
		}
	}
	return maxT - minT
}

// FlowTrace is an ordered flow header trace.
type FlowTrace struct {
	Records []FlowRecord
}

// SortByStart orders records by flow start time (stable).
func (t *FlowTrace) SortByStart() {
	slices.SortStableFunc(t.Records, func(a, b FlowRecord) int { return cmp.Compare(a.Start, b.Start) })
}

// Duration returns the span from earliest start to latest end, microseconds.
func (t *FlowTrace) Duration() int64 {
	if len(t.Records) == 0 {
		return 0
	}
	minT, maxT := t.Records[0].Start, t.Records[0].End()
	for _, r := range t.Records {
		if r.Start < minT {
			minT = r.Start
		}
		if e := r.End(); e > maxT {
			maxT = e
		}
	}
	return maxT - minT
}

// SplitEpochs divides a packet trace into n equal-duration measurement
// epochs, the D_t of the paper's problem formulation.
func (t *PacketTrace) SplitEpochs(n int) []*PacketTrace {
	if n <= 0 {
		panic("trace: SplitEpochs needs n > 0")
	}
	epochs := make([]*PacketTrace, n)
	for i := range epochs {
		epochs[i] = &PacketTrace{}
	}
	if len(t.Packets) == 0 {
		return epochs
	}
	start := t.Packets[0].Time
	for _, p := range t.Packets {
		if p.Time < start {
			start = p.Time
		}
	}
	span := t.Duration() + 1
	for _, p := range t.Packets {
		idx := int((p.Time - start) * int64(n) / span)
		if idx >= n {
			idx = n - 1
		}
		epochs[idx].Packets = append(epochs[idx].Packets, p)
	}
	return epochs
}

// MergePackets concatenates epochs back into one giant trace (Insight 1's
// merge step) and sorts by time.
func MergePackets(epochs []*PacketTrace) *PacketTrace {
	out := &PacketTrace{}
	for _, e := range epochs {
		out.Packets = append(out.Packets, e.Packets...)
	}
	out.SortByTime()
	return out
}

// SplitEpochs divides a flow trace into n equal-duration epochs by record
// start time.
func (t *FlowTrace) SplitEpochs(n int) []*FlowTrace {
	if n <= 0 {
		panic("trace: SplitEpochs needs n > 0")
	}
	epochs := make([]*FlowTrace, n)
	for i := range epochs {
		epochs[i] = &FlowTrace{}
	}
	if len(t.Records) == 0 {
		return epochs
	}
	start := t.Records[0].Start
	for _, r := range t.Records {
		if r.Start < start {
			start = r.Start
		}
	}
	span := t.Duration() + 1
	for _, r := range t.Records {
		idx := int((r.Start - start) * int64(n) / span)
		if idx >= n {
			idx = n - 1
		}
		epochs[idx].Records = append(epochs[idx].Records, r)
	}
	return epochs
}

// MergeFlows concatenates flow epochs into one trace sorted by start time.
func MergeFlows(epochs []*FlowTrace) *FlowTrace {
	out := &FlowTrace{}
	for _, e := range epochs {
		out.Records = append(out.Records, e.Records...)
	}
	out.SortByStart()
	return out
}
