package core

import (
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/trace"
	"repro/internal/validate"
)

func TestRetargetDstPorts(t *testing.T) {
	tr := datasets.UGR16(2000, 1)
	dist := Distribution[uint16]{Values: []uint16{80, 53}, Weights: []float64{3, 1}}
	if err := RetargetDstPorts(tr, dist, 7); err != nil {
		t.Fatal(err)
	}
	counts := map[uint16]int{}
	for _, r := range tr.Records {
		counts[r.Tuple.DstPort]++
	}
	if counts[80]+counts[53] != len(tr.Records) {
		t.Fatal("all ports must come from the target distribution")
	}
	frac := float64(counts[80]) / float64(len(tr.Records))
	if math.Abs(frac-0.75) > 0.05 {
		t.Fatalf("port 80 fraction = %v, want ~0.75", frac)
	}
	// Port 80 pins TCP: the result must stay Test 3 compliant.
	rep := validate.CheckFlows(tr)
	if rep.Test3 < 1 {
		t.Fatalf("retargeting broke port/protocol consistency: %v", rep.Test3)
	}
}

func TestRetargetProtocolsRespectsPinnedPorts(t *testing.T) {
	tr := datasets.UGR16(1000, 2)
	dist := Distribution[trace.Protocol]{
		Values:  []trace.Protocol{trace.UDP},
		Weights: []float64{1},
	}
	if err := RetargetProtocols(tr, dist, 3); err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Records {
		if want := trace.PortProtocol(r.Tuple.DstPort); want != 0 {
			if r.Tuple.Proto != want {
				t.Fatalf("port %d must keep protocol %v", r.Tuple.DstPort, want)
			}
		} else if r.Tuple.Proto != trace.UDP {
			t.Fatalf("unpinned record should be UDP, got %v", r.Tuple.Proto)
		}
	}
}

func TestRetargetSrcIPs(t *testing.T) {
	tr := datasets.UGR16(500, 4)
	pool := Distribution[trace.IPv4]{
		Values:  []trace.IPv4{trace.IPv4FromBytes(10, 0, 0, 1), trace.IPv4FromBytes(10, 0, 0, 2)},
		Weights: []float64{1, 1},
	}
	if err := RetargetSrcIPs(tr, pool, 5); err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Records {
		if o := r.Tuple.SrcIP.Octets(); o[0] != 10 {
			t.Fatalf("source IP %v not from the pool", r.Tuple.SrcIP)
		}
	}
}

func TestDistributionValidation(t *testing.T) {
	bad := []Distribution[uint16]{
		{},
		{Values: []uint16{80}, Weights: []float64{1, 2}},
		{Values: []uint16{80}, Weights: []float64{-1}},
		{Values: []uint16{80}, Weights: []float64{0}},
	}
	tr := datasets.UGR16(10, 6)
	for i, d := range bad {
		if err := RetargetDstPorts(tr, d, 1); err == nil {
			t.Fatalf("distribution %d should be rejected", i)
		}
	}
}
