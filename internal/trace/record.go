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
	sortByKey(t.Packets, func(p *Packet) int64 { return p.Time })
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
	sortByKey(t.Records, func(r *FlowRecord) int64 { return r.Start })
}

// keyIndex is one element's sort key and its input position.
type keyIndex struct {
	key int64
	idx int
}

// sortByKey orders xs by key, equal keys in input order: the order a
// stable sort gives. It sorts (key, index) pairs instead of the elements
// themselves; the pairs are unique, so the unstable pdqsort has only one
// order to reach, and then it moves every element once, along the cycles
// of the sorted permutation. A stable merge of the elements moves each
// one O(log n) times, and a flow record is 56 bytes to a pair's 16.
// Input already in order, such as a capture read back, costs one pass and
// no allocation.
func sortByKey[T any](xs []T, key func(*T) int64) {
	sorted := true
	for i := 1; i < len(xs) && sorted; i++ {
		sorted = key(&xs[i-1]) <= key(&xs[i])
	}
	if sorted {
		return
	}
	keys := make([]keyIndex, len(xs))
	for i := range xs {
		keys[i] = keyIndex{key(&xs[i]), i}
	}
	slices.SortFunc(keys, func(a, b keyIndex) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	// keys[k].idx is the input position of the element that belongs at k.
	// Each cycle saves its first element, shifts the rest one step along
	// the cycle, and marks every visited slot done (idx == its own slot).
	for k := range keys {
		if keys[k].idx == k {
			continue
		}
		first := xs[k]
		j := k
		for {
			src := keys[j].idx
			keys[j].idx = j
			if src == k {
				xs[j] = first
				break
			}
			xs[j] = xs[src]
			j = src
		}
	}
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
