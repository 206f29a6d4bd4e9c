package baselines

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/trace"
)

// STAN is the autoregressive (non-GAN) baseline (Xu et al. 2020): NetFlow
// records are grouped by host (source IP), ordered by time, and an
// autoregressive neural network predicts each record's attributes from the
// previous record's. Host IPs for generation are drawn from the real data,
// as the paper describes ("To generate data from multiple hosts, we
// randomly draw host IPs from the real data").
//
// The per-attribute heads are: regression (MSE) for start-delta, duration,
// packets, bytes (all min–max normalized); categorical (softmax) for
// destination port (over the observed vocabulary), protocol, and label.
// Destination IPs are drawn from the host's observed peers. Like the
// original, STAN only ensures within-host structure; cross-field tail
// behaviour (flow length, Challenge 1) is not modeled explicitly.
type STAN struct {
	net  *nn.MLP
	head *nn.OutputHead
	dur  time.Duration
	rnd  *rand.Rand

	hosts     []trace.IPv4
	hostFreq  []float64
	peers     map[trace.IPv4][]trace.IPv4
	portVocab []uint16
	portIndex map[uint16]int

	recsPerHost []float64 // empirical sequence lengths

	deltaNorm encoding.MinMax
	durNorm   encoding.MinMax
	pktNorm   encoding.MinMax
	bytNorm   encoding.MinMax
	startNorm encoding.MinMax

	width int
}

const stanMaxPorts = 64

// stanFeature is (delta, dur, pkt, byt) continuous + port + proto + label
// categoricals.
func (s *STAN) schema() []nn.FieldSpec {
	return []nn.FieldSpec{
		{Name: "delta", Kind: nn.FieldContinuous, Size: 1},
		{Name: "dur", Kind: nn.FieldContinuous, Size: 1},
		{Name: "pkt", Kind: nn.FieldContinuous, Size: 1},
		{Name: "byt", Kind: nn.FieldContinuous, Size: 1},
		{Name: "dport", Kind: nn.FieldCategorical, Size: len(s.portVocab)},
		{Name: "proto", Kind: nn.FieldCategorical, Size: encoding.NumProtocols},
		{Name: "label", Kind: nn.FieldCategorical, Size: int(trace.NumLabels)},
	}
}

// TrainSTAN fits the autoregressive model on a NetFlow trace.
func TrainSTAN(t *trace.FlowTrace, epochs int, seed int64) (*STAN, error) {
	s := &STAN{
		rnd:       rand.New(rand.NewSource(seed)),
		peers:     make(map[trace.IPv4][]trace.IPv4),
		portIndex: make(map[uint16]int),
	}
	t0 := time.Now()

	// Group records by host.
	byHost := make(map[trace.IPv4][]trace.FlowRecord)
	for _, r := range t.Records {
		byHost[r.Tuple.SrcIP] = append(byHost[r.Tuple.SrcIP], r)
	}
	for host, recs := range byHost {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
		byHost[host] = recs
		s.hosts = append(s.hosts, host)
		s.recsPerHost = append(s.recsPerHost, float64(len(recs)))
		for _, r := range recs {
			s.peers[host] = append(s.peers[host], r.Tuple.DstIP)
		}
	}
	sort.Slice(s.hosts, func(i, j int) bool { return s.hosts[i] < s.hosts[j] })
	s.hostFreq = make([]float64, len(s.hosts))
	for i, h := range s.hosts {
		s.hostFreq[i] = float64(len(byHost[h]))
	}

	// Port vocabulary: the most frequent destination ports.
	portCount := make(map[uint16]int)
	for _, r := range t.Records {
		portCount[r.Tuple.DstPort]++
	}
	type pc struct {
		p uint16
		c int
	}
	var pcs []pc
	for p, c := range portCount {
		pcs = append(pcs, pc{p, c})
	}
	sort.Slice(pcs, func(i, j int) bool {
		if pcs[i].c != pcs[j].c {
			return pcs[i].c > pcs[j].c
		}
		return pcs[i].p < pcs[j].p
	})
	for i, e := range pcs {
		if i >= stanMaxPorts {
			break
		}
		s.portIndex[e.p] = len(s.portVocab)
		s.portVocab = append(s.portVocab, e.p)
	}

	// Normalizers.
	var deltas, durs, pkts, byts, starts []float64
	for _, recs := range byHost {
		prev := int64(-1)
		for _, r := range recs {
			if prev >= 0 {
				deltas = append(deltas, float64(r.Start-prev))
			}
			prev = r.Start
			durs = append(durs, float64(r.Duration))
			pkts = append(pkts, float64(r.Packets))
			byts = append(byts, float64(r.Bytes))
			starts = append(starts, float64(r.Start))
		}
	}
	if len(deltas) == 0 {
		deltas = []float64{0}
	}
	s.deltaNorm.Fit(deltas)
	s.durNorm.Fit(durs)
	s.pktNorm.Fit(pkts)
	s.bytNorm.Fit(byts)
	s.startNorm.Fit(starts)

	s.width = nn.Width(s.schema())
	s.net = nn.NewMLP("stan", []int{s.width, 48, 48, s.width}, nn.ReLU, nn.Identity, s.rnd)
	s.head = nn.NewOutputHead(s.schema())
	opt := nn.NewAdam(1e-3)
	opt.Beta1 = 0.9

	// Build (prev → next) training pairs per host; the first record in a
	// host sequence conditions on the zero vector.
	var inputs, targets [][]float64
	for _, host := range s.hosts {
		recs := byHost[host]
		prevVec := make([]float64, s.width)
		prevStart := int64(-1)
		for _, r := range recs {
			tgt := s.featurize(r, prevStart)
			inputs = append(inputs, prevVec)
			targets = append(targets, tgt)
			prevVec = tgt
			prevStart = r.Start
		}
	}

	const batch = 32
	for ep := 0; ep < epochs; ep++ {
		perm := s.rnd.Perm(len(inputs))
		for off := 0; off+batch <= len(perm); off += batch {
			x := mat.New(batch, s.width)
			y := mat.New(batch, s.width)
			for i := 0; i < batch; i++ {
				copy(x.Row(i), inputs[perm[off+i]])
				copy(y.Row(i), targets[perm[off+i]])
			}
			pred := s.head.Forward(s.net.Forward(x))
			_, grad := nn.MSELoss(pred, y)
			s.net.Backward(s.head.Backward(grad))
			opt.Step(s.net)
		}
	}
	s.dur = time.Since(t0)
	return s, nil
}

// featurize builds the target vector of record r given the previous
// record's start time (-1 for the first record of a host).
func (s *STAN) featurize(r trace.FlowRecord, prevStart int64) []float64 {
	delta := 0.0
	if prevStart >= 0 {
		delta = float64(r.Start - prevStart)
	}
	out := make([]float64, 0, s.width)
	out = append(out,
		s.deltaNorm.Transform(delta),
		s.durNorm.Transform(float64(r.Duration)),
		s.pktNorm.Transform(float64(r.Packets)),
		s.bytNorm.Transform(float64(r.Bytes)),
	)
	port := make([]float64, len(s.portVocab))
	if idx, ok := s.portIndex[r.Tuple.DstPort]; ok {
		port[idx] = 1
	} else if len(port) > 0 {
		port[s.rnd.Intn(len(port))] = 1 // out-of-vocabulary: random slot
	}
	out = append(out, port...)
	out = append(out, encoding.ProtoOneHot(r.Tuple.Proto)...)
	label := make([]float64, trace.NumLabels)
	label[r.Label] = 1
	return append(out, label...)
}

// Name implements FlowSynthesizer.
func (s *STAN) Name() string { return "stan" }

// TrainTime implements FlowSynthesizer.
func (s *STAN) TrainTime() time.Duration { return s.dur }

// Generate produces n synthetic flow records host by host.
func (s *STAN) Generate(n int) *trace.FlowTrace {
	out := &trace.FlowTrace{Records: make([]trace.FlowRecord, 0, n)}
	hostPick := rng.NewCategorical(s.hostFreq)
	vec := make([]float64, s.width)
	for len(out.Records) < n {
		host := s.hosts[hostPick.Draw(s.rnd)]
		seqLen := int(s.recsPerHost[s.rnd.Intn(len(s.recsPerHost))])
		if seqLen < 1 {
			seqLen = 1
		}
		prev := make([]float64, s.width)
		start := int64(s.startNorm.Inverse(s.rnd.Float64()))
		for k := 0; k < seqLen && len(out.Records) < n; k++ {
			x := mat.NewFrom(1, s.width, prev)
			pred := s.head.Forward(s.net.Forward(x))
			nn.SampleRow(vec, s.schema(), pred.Row(0), s.rnd.Float64)

			r := trace.FlowRecord{}
			r.Tuple.SrcIP = host
			peers := s.peers[host]
			r.Tuple.DstIP = peers[s.rnd.Intn(len(peers))]
			r.Tuple.SrcPort = uint16(32768 + s.rnd.Intn(32768))
			if k > 0 {
				start += int64(s.deltaNorm.Inverse(vec[0]))
			}
			r.Start = start
			r.Duration = int64(s.durNorm.Inverse(vec[1]))
			r.Packets = int64(s.pktNorm.Inverse(vec[2]))
			if r.Packets < 1 {
				r.Packets = 1
			}
			r.Bytes = int64(s.bytNorm.Inverse(vec[3]))
			if r.Bytes < 1 {
				r.Bytes = 1
			}
			off := 4
			for i := 0; i < len(s.portVocab); i++ {
				if vec[off+i] == 1 {
					r.Tuple.DstPort = s.portVocab[i]
					break
				}
			}
			off += len(s.portVocab)
			r.Tuple.Proto = encoding.ProtoFromOneHot(vec[off : off+encoding.NumProtocols])
			off += encoding.NumProtocols
			for l := 0; l < int(trace.NumLabels); l++ {
				if vec[off+l] == 1 {
					r.Label = trace.Label(l)
					break
				}
			}
			out.Records = append(out.Records, r)
			prev = s.featurize(r, r.Start) // approximate recurrence
		}
	}
	out.SortByStart()
	return out
}
