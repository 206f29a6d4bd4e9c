package trace

import "sort"

// PacketFlow groups the packets of one five-tuple, ordered by time. This is
// one sample of D^flow for PCAP data: the tuple is the metadata, the packet
// sequence is the measurement time series.
type PacketFlow struct {
	Tuple   FiveTuple
	Packets []Packet
}

// Start returns the first packet's timestamp.
func (f *PacketFlow) Start() int64 {
	if len(f.Packets) == 0 {
		return 0
	}
	return f.Packets[0].Time
}

// End returns the last packet's timestamp.
func (f *PacketFlow) End() int64 {
	if len(f.Packets) == 0 {
		return 0
	}
	return f.Packets[len(f.Packets)-1].Time
}

// FlowSeries groups the flow records of one five-tuple, ordered by start
// time. This is one sample of D^flow for NetFlow data.
type FlowSeries struct {
	Tuple   FiveTuple
	Records []FlowRecord
}

// Start returns the first record's start time.
func (f *FlowSeries) Start() int64 {
	if len(f.Records) == 0 {
		return 0
	}
	return f.Records[0].Start
}

// End returns the last record's end time.
func (f *FlowSeries) End() int64 {
	if len(f.Records) == 0 {
		return 0
	}
	return f.Records[len(f.Records)-1].End()
}

// SplitFlows groups a merged packet trace by five-tuple (Insight 1's
// flow-based split), returning flows ordered by first-packet time with each
// flow's packets in time order.
func SplitFlows(t *PacketTrace) []*PacketFlow {
	byTuple := make(map[FiveTuple]*PacketFlow)
	var order []*PacketFlow
	for _, p := range t.Packets {
		f, ok := byTuple[p.Tuple]
		if !ok {
			f = &PacketFlow{Tuple: p.Tuple}
			byTuple[p.Tuple] = f
			order = append(order, f)
		}
		f.Packets = append(f.Packets, p)
	}
	for _, f := range order {
		sort.SliceStable(f.Packets, func(i, j int) bool { return f.Packets[i].Time < f.Packets[j].Time })
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].Start() < order[j].Start() })
	return order
}

// SplitFlowSeries groups a merged flow trace by five-tuple.
func SplitFlowSeries(t *FlowTrace) []*FlowSeries {
	byTuple := make(map[FiveTuple]*FlowSeries)
	var order []*FlowSeries
	for _, r := range t.Records {
		f, ok := byTuple[r.Tuple]
		if !ok {
			f = &FlowSeries{Tuple: r.Tuple}
			byTuple[r.Tuple] = f
			order = append(order, f)
		}
		f.Records = append(f.Records, r)
	}
	for _, f := range order {
		sort.SliceStable(f.Records, func(i, j int) bool { return f.Records[i].Start < f.Records[j].Start })
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].Start() < order[j].Start() })
	return order
}

// AssemblePackets flattens flows back into a time-sorted packet trace, the
// post-processing merge of the paper's Figure 9.
func AssemblePackets(flows []*PacketFlow) *PacketTrace {
	out := &PacketTrace{}
	for _, f := range flows {
		out.Packets = append(out.Packets, f.Packets...)
	}
	out.SortByTime()
	return out
}

// FlowSizeDistribution returns, for each flow, its packet count — the
// quantity behind Figures 1b and the FS metric.
func FlowSizeDistribution(flows []*PacketFlow) []float64 {
	out := make([]float64, len(flows))
	for i, f := range flows {
		out[i] = float64(len(f.Packets))
	}
	return out
}

// RecordsPerTuple returns, for each five-tuple, how many flow records share
// it — the quantity behind Figure 1a.
func RecordsPerTuple(t *FlowTrace) []float64 {
	counts := make(map[FiveTuple]int)
	for _, r := range t.Records {
		counts[r.Tuple]++
	}
	out := make([]float64, 0, len(counts))
	for _, c := range counts {
		out = append(out, float64(c))
	}
	sort.Float64s(out)
	return out
}
