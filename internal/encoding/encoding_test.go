package encoding

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestIPBitsRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		ip := trace.IPv4(v)
		return IPFromBits(IPBits(ip)) == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPBitsValues(t *testing.T) {
	bits := IPBits(trace.IPv4FromBytes(128, 0, 0, 1))
	if bits[0] != 1 {
		t.Fatal("MSB of 128.0.0.1 must be set")
	}
	if bits[31] != 1 {
		t.Fatal("LSB of 128.0.0.1 must be set")
	}
	for i := 1; i < 31; i++ {
		if bits[i] != 0 {
			t.Fatalf("bit %d should be 0", i)
		}
	}
}

func TestIPBitsNoisyDecode(t *testing.T) {
	// Values near 0/1 (as a sigmoid generator emits) must still decode.
	ip := trace.IPv4FromBytes(10, 20, 30, 40)
	bits := IPBits(ip)
	for i := range bits {
		if bits[i] == 1 {
			bits[i] = 0.93
		} else {
			bits[i] = 0.07
		}
	}
	if IPFromBits(bits) != ip {
		t.Fatal("noisy bits must round to the same address")
	}
}

func TestPortBitsRoundTrip(t *testing.T) {
	f := func(p uint16) bool { return PortFromBits(PortBits(p)) == p }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProtoOneHot(t *testing.T) {
	for _, p := range []trace.Protocol{trace.TCP, trace.UDP, trace.ICMP} {
		oh := ProtoOneHot(p)
		if len(oh) != NumProtocols {
			t.Fatalf("one-hot width %d", len(oh))
		}
		if ProtoFromOneHot(oh) != p {
			t.Fatalf("round trip failed for %v", p)
		}
	}
	// Unknown protocol maps into the table without panicking.
	oh := ProtoOneHot(trace.Protocol(99))
	if ProtoFromOneHot(oh) != trace.ICMP {
		t.Fatal("unknown protocols fall back to the last slot")
	}
}

func TestLogTransformRoundTrip(t *testing.T) {
	for _, x := range []float64{0, 1, 10, 12345, 1e8} {
		if got := Expm1(Log1p(x)); math.Abs(got-x) > 1e-6*math.Max(1, x) {
			t.Fatalf("log round trip: %v -> %v", x, got)
		}
	}
	if Expm1(-5) != 0 {
		t.Fatal("Expm1 must clamp negatives to 0")
	}
}

func TestMinMax(t *testing.T) {
	var m MinMax
	m.Fit([]float64{10, 20, 30})
	if m.Transform(10) != 0 || m.Transform(30) != 1 {
		t.Fatal("endpoints must map to 0/1")
	}
	if m.Transform(20) != 0.5 {
		t.Fatal("midpoint must map to 0.5")
	}
	if m.Transform(-5) != 0 || m.Transform(100) != 1 {
		t.Fatal("out-of-range inputs must clamp")
	}
	if m.Inverse(0.5) != 20 {
		t.Fatal("inverse wrong")
	}
}

func TestMinMaxDegenerate(t *testing.T) {
	var m MinMax
	m.Fit([]float64{7, 7, 7})
	if got := m.Inverse(m.Transform(7)); got != 7 {
		t.Fatalf("degenerate round trip = %v", got)
	}
	var empty MinMax
	empty.Fit(nil)
	if empty.Transform(0.5) != 0.5 {
		t.Fatal("empty fit should behave as identity on [0,1]")
	}
}

func TestMinMaxPanicsBeforeFit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var m MinMax
	m.Transform(1)
}

func TestLogMinMaxRoundTrip(t *testing.T) {
	var l LogMinMax
	l.Fit([]float64{1, 100, 1e6})
	for _, x := range []float64{1, 50, 12345, 1e6} {
		y := l.Transform(x)
		if y < 0 || y > 1 {
			t.Fatalf("transform out of range: %v", y)
		}
		back := l.Inverse(y)
		if math.Abs(back-x) > 1e-6*x {
			t.Fatalf("round trip %v -> %v -> %v", x, y, back)
		}
	}
}

func TestLogMinMaxCompressesTail(t *testing.T) {
	// The log transform must spend resolution on small values: the gap
	// between 1 and 10 should exceed the gap between 1e5 and 1e5+9 in
	// transformed space.
	var l LogMinMax
	l.Fit([]float64{1, 1e6})
	small := l.Transform(10) - l.Transform(1)
	large := l.Transform(1e5+9) - l.Transform(1e5)
	if small <= large {
		t.Fatalf("log transform should compress the tail: %v vs %v", small, large)
	}
}
