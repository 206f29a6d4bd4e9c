package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/datasets"
	"repro/internal/trace"
)

func TestJSDIdentical(t *testing.T) {
	p := map[int]float64{1: 10, 2: 20}
	if d := JSD(p, p); d != 0 {
		t.Fatalf("JSD(p,p) = %v", d)
	}
	// Scale invariance.
	q := map[int]float64{1: 1, 2: 2}
	if d := JSD(p, q); d > 1e-12 {
		t.Fatalf("JSD should be scale invariant, got %v", d)
	}
}

func TestJSDDisjointIsOne(t *testing.T) {
	p := map[int]float64{1: 5}
	q := map[int]float64{2: 5}
	if d := JSD(p, q); math.Abs(d-1) > 1e-12 {
		t.Fatalf("disjoint JSD = %v, want 1 (base-2)", d)
	}
}

func TestJSDProperties(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		p := map[int]float64{0: float64(a) + 1, 1: float64(b) + 1}
		q := map[int]float64{0: float64(c) + 1, 1: float64(d) + 1}
		j1, j2 := JSD(p, q), JSD(q, p)
		return j1 >= 0 && j1 <= 1 && math.Abs(j1-j2) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJSDEmpty(t *testing.T) {
	if d := JSD(map[int]float64{}, map[int]float64{}); d != 0 {
		t.Fatalf("JSD of two empties = %v", d)
	}
	if d := JSD(map[int]float64{1: 1}, map[int]float64{}); d != 1 {
		t.Fatalf("JSD against empty = %v, want 1", d)
	}
}

func TestEMDPointMasses(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, 1, 1}
	if d := EMD(a, b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("EMD = %v, want 1", d)
	}
}

func TestEMDIdentical(t *testing.T) {
	a := []float64{1, 5, 2, 8}
	if d := EMD(a, a); d != 0 {
		t.Fatalf("EMD(a,a) = %v", d)
	}
}

func TestEMDKnownValue(t *testing.T) {
	// Uniform{0,1} vs Uniform{0,2}: move half the mass from 1 to 2 → 0.5.
	a := []float64{0, 1}
	b := []float64{0, 2}
	if d := EMD(a, b); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("EMD = %v, want 0.5", d)
	}
}

func TestEMDSymmetricAndTriangle(t *testing.T) {
	f := func(s1, s2, s3 uint8) bool {
		a := []float64{float64(s1), float64(s1) + 2}
		b := []float64{float64(s2), float64(s2) + 3}
		c := []float64{float64(s3), float64(s3) + 1}
		ab, ba := EMD(a, b), EMD(b, a)
		if math.Abs(ab-ba) > 1e-9 {
			return false
		}
		// Triangle inequality.
		return EMD(a, c) <= ab+EMD(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEMDUnequalLengths(t *testing.T) {
	a := []float64{0, 0, 0, 0}
	b := []float64{0}
	if d := EMD(a, b); d != 0 {
		t.Fatalf("same distribution, different sample count: EMD = %v", d)
	}
}

func TestNormalizeEMD(t *testing.T) {
	got := NormalizeEMD([]float64{2, 4, 6})
	want := []float64{0.1, 0.5, 0.9}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("NormalizeEMD = %v, want %v", got, want)
		}
	}
	same := NormalizeEMD([]float64{3, 3})
	if same[0] != 0.5 || same[1] != 0.5 {
		t.Fatalf("constant values should map to 0.5, got %v", same)
	}
	if len(NormalizeEMD(nil)) != 0 {
		t.Fatal("empty input should give empty output")
	}
}

func TestNormalizeEMDPreservesOrder(t *testing.T) {
	f := func(a, b, c uint8) bool {
		in := []float64{float64(a), float64(b), float64(c)}
		out := NormalizeEMD(in)
		for i := range in {
			for j := range in {
				if in[i] < in[j] && out[i] >= out[j]+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	if r := Spearman(a, b); math.Abs(r-1) > 1e-12 {
		t.Fatalf("Spearman = %v, want 1", r)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if r := Spearman(a, rev); math.Abs(r+1) > 1e-12 {
		t.Fatalf("Spearman = %v, want -1", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	a := []float64{1, 2, 2, 4}
	b := []float64{1, 3, 3, 9}
	if r := Spearman(a, b); math.Abs(r-1) > 1e-12 {
		t.Fatalf("tied ranks should still be perfectly correlated, got %v", r)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if Spearman([]float64{1}, []float64{2}) != 0 {
		t.Fatal("single pair must give 0")
	}
	if Spearman([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("zero variance must give 0")
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(10, 12) != 0.2 {
		t.Fatal("basic relative error wrong")
	}
	if RelativeError(0, 0) != 0 {
		t.Fatal("0/0 should be 0")
	}
	if !math.IsInf(RelativeError(0, 5), 1) {
		t.Fatal("x/0 should be +Inf")
	}
	if RelativeError(-10, -5) != 0.5 {
		t.Fatal("negative reals should use absolute values")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatal("extreme quantiles wrong")
	}
	if q := Quantile(xs, 0.5); math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("median = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestCompareFlowsSelfIsZero(t *testing.T) {
	tr := datasets.UGR16(500, 1)
	rep := CompareFlows(tr, tr)
	if rep.AvgJSD() != 0 {
		t.Fatalf("self JSD = %v", rep.AvgJSD())
	}
	if rep.AvgEMD() != 0 {
		t.Fatalf("self EMD = %v", rep.AvgEMD())
	}
	for _, f := range FlowJSDFields {
		if _, ok := rep.JSD[f]; !ok {
			t.Fatalf("missing JSD field %s", f)
		}
	}
	for _, f := range FlowEMDFields {
		if _, ok := rep.EMD[f]; !ok {
			t.Fatalf("missing EMD field %s", f)
		}
	}
}

func TestComparePacketsDetectsDivergence(t *testing.T) {
	real := datasets.CAIDA(800, 1)
	same := datasets.CAIDA(800, 1)
	other := datasets.DC(800, 2)
	repSame := ComparePackets(real, same)
	repOther := ComparePackets(real, other)
	if repSame.AvgJSD() != 0 {
		t.Fatalf("identical traces JSD = %v", repSame.AvgJSD())
	}
	if repOther.AvgJSD() <= repSame.AvgJSD() {
		t.Fatal("different dataset should diverge more")
	}
	if repOther.EMD["PS"] <= 0 {
		t.Fatal("packet size EMD should be positive across datasets")
	}
}

func TestNormalizeReports(t *testing.T) {
	real := datasets.UGR16(400, 3)
	synGood := datasets.UGR16(400, 4) // same distribution family
	synBad := datasets.CIDDS(400, 5)  // different family
	reports := map[string]FieldReport{
		"perfect": CompareFlows(real, real),
		"good":    CompareFlows(real, synGood),
		"bad":     CompareFlows(real, synBad),
	}
	avgJSD, avgEMD := NormalizeReports(reports)
	if avgJSD["good"] >= avgJSD["bad"] {
		t.Fatalf("good model should have lower JSD: %v vs %v", avgJSD["good"], avgJSD["bad"])
	}
	// The perfect model has EMD 0 on every field, so it must receive the
	// minimum normalized value 0.1 on every field.
	if math.Abs(avgEMD["perfect"]-0.1) > 1e-9 {
		t.Fatalf("perfect model normalized EMD = %v, want 0.1", avgEMD["perfect"])
	}
	if avgEMD["perfect"] >= avgEMD["bad"] {
		t.Fatal("perfect model must beat the bad model on normalized EMD")
	}
	for _, v := range avgEMD {
		if v < 0.1-1e-9 || v > 0.9+1e-9 {
			t.Fatalf("normalized EMD %v outside [0.1,0.9]", v)
		}
	}
}

func TestFlowContinuousFieldsUnits(t *testing.T) {
	tpl := trace.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: trace.TCP}
	tr := &trace.FlowTrace{Records: []trace.FlowRecord{
		{Tuple: tpl, Start: 2_000, Duration: 1_000, Packets: 7, Bytes: 700},
	}}
	if got := flowContinuous(tr, "TS")[0]; got != 2 {
		t.Fatalf("TS should be in ms, got %v", got)
	}
	if got := flowContinuous(tr, "TD")[0]; got != 1 {
		t.Fatalf("TD should be in ms, got %v", got)
	}
	if got := flowContinuous(tr, "PKT")[0]; got != 7 {
		t.Fatalf("PKT = %v", got)
	}
	if got := flowContinuous(tr, "BYT")[0]; got != 700 {
		t.Fatalf("BYT = %v", got)
	}
}
