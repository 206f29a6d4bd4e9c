// Package encoding implements the header-field representations of the
// paper's Insight 2 (Table 2): bitwise IP encoding, byte encoding, one-hot
// encoding, the log(1+x) transform for large-support numeric fields, and
// min–max [0,1] normalization for continuous fields — together with their
// inverses, which the post-processing stage uses to map generated vectors
// back to valid header values.
package encoding

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// IPBits encodes an IPv4 address as 32 values in {0,1}, most significant
// bit first. This is NetShare's IP representation: fidelity-adequate,
// scalable, and — unlike dictionary embeddings — data independent, hence
// compatible with differential privacy.
func IPBits(ip trace.IPv4) []float64 {
	out := make([]float64, 32)
	for i := 0; i < 32; i++ {
		if ip&(1<<(31-i)) != 0 {
			out[i] = 1
		}
	}
	return out
}

// IPFromBits inverts IPBits, thresholding each value at 0.5.
func IPFromBits(bits []float64) trace.IPv4 {
	if len(bits) != 32 {
		panic(fmt.Sprintf("encoding: IPFromBits needs 32 values, got %d", len(bits)))
	}
	var ip trace.IPv4
	for i, b := range bits {
		if b >= 0.5 {
			ip |= 1 << (31 - i)
		}
	}
	return ip
}

// PortBits encodes a port as 16 values in {0,1}, most significant first.
func PortBits(p uint16) []float64 {
	out := make([]float64, 16)
	for i := 0; i < 16; i++ {
		if p&(1<<(15-i)) != 0 {
			out[i] = 1
		}
	}
	return out
}

// PortFromBits inverts PortBits.
func PortFromBits(bits []float64) uint16 {
	if len(bits) != 16 {
		panic(fmt.Sprintf("encoding: PortFromBits needs 16 values, got %d", len(bits)))
	}
	var p uint16
	for i, b := range bits {
		if b >= 0.5 {
			p |= 1 << (15 - i)
		}
	}
	return p
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// protoIndex maps the dataset protocols to one-hot slots.
var protoOrder = []trace.Protocol{trace.TCP, trace.UDP, trace.ICMP}

// ProtoOneHot encodes a protocol as a 3-way one-hot vector
// (TCP, UDP, ICMP). Unknown protocols map to ICMP's slot.
func ProtoOneHot(p trace.Protocol) []float64 {
	out := make([]float64, len(protoOrder))
	idx := len(protoOrder) - 1
	for i, q := range protoOrder {
		if p == q {
			idx = i
			break
		}
	}
	out[idx] = 1
	return out
}

// ProtoFromOneHot inverts ProtoOneHot via argmax.
func ProtoFromOneHot(vals []float64) trace.Protocol {
	if len(vals) != len(protoOrder) {
		panic(fmt.Sprintf("encoding: ProtoFromOneHot needs %d values, got %d", len(protoOrder), len(vals)))
	}
	best, idx := vals[0], 0
	for i, v := range vals {
		if v > best {
			best, idx = v, i
		}
	}
	return protoOrder[idx]
}

// NumProtocols is the width of the protocol one-hot encoding.
const NumProtocols = 3

// Log1p applies the paper's log(1+x) transform for large-support fields
// (packets/bytes per flow).
func Log1p(x float64) float64 { return math.Log1p(x) }

// Expm1 inverts Log1p, clamping at zero.
func Expm1(y float64) float64 {
	v := math.Expm1(y)
	if v < 0 {
		return 0
	}
	return v
}

// MinMax normalizes values into [0,1] and back, remembering the training
// range. DoppelGANger's configuration ([0,1] normalization for continuous
// fields, Appendix C) uses one per continuous field.
type MinMax struct {
	Lo, Hi float64
	fitted bool
}

// Fit sets the normalization range from samples. An empty input fits the
// degenerate range [0,1].
func (m *MinMax) Fit(xs []float64) {
	m.Lo, m.Hi = 0, 1
	if len(xs) > 0 {
		m.Lo, m.Hi = xs[0], xs[0]
		for _, x := range xs {
			if x < m.Lo {
				m.Lo = x
			}
			if x > m.Hi {
				m.Hi = x
			}
		}
		if m.Hi == m.Lo {
			m.Hi = m.Lo + 1
		}
	}
	m.fitted = true
}

// Transform maps x into [0,1], clamping out-of-range inputs.
func (m *MinMax) Transform(x float64) float64 {
	if !m.fitted {
		panic("encoding: MinMax.Transform before Fit")
	}
	return clamp((x-m.Lo)/(m.Hi-m.Lo), 0, 1)
}

// Inverse maps a [0,1] value back to the original range.
func (m *MinMax) Inverse(y float64) float64 {
	if !m.fitted {
		panic("encoding: MinMax.Inverse before Fit")
	}
	return m.Lo + clamp(y, 0, 1)*(m.Hi-m.Lo)
}

// Range returns the fitted bounds and whether Fit has run — used when
// persisting trained models.
func (m *MinMax) Range() (lo, hi float64, ok bool) { return m.Lo, m.Hi, m.fitted }

// RestoreRange re-establishes a previously fitted range without data.
func (m *MinMax) RestoreRange(lo, hi float64) {
	if hi == lo {
		hi = lo + 1
	}
	m.Lo, m.Hi, m.fitted = lo, hi, true
}

// LogMinMax composes Log1p with MinMax: the standard NetShare treatment of
// packets/bytes per flow.
type LogMinMax struct{ mm MinMax }

// Fit fits the underlying range on log-transformed samples.
func (l *LogMinMax) Fit(xs []float64) {
	logged := make([]float64, len(xs))
	for i, x := range xs {
		logged[i] = Log1p(x)
	}
	l.mm.Fit(logged)
}

// Transform maps x through log(1+x) then [0,1].
func (l *LogMinMax) Transform(x float64) float64 { return l.mm.Transform(Log1p(x)) }

// Inverse maps a [0,1] value back through the log transform.
func (l *LogMinMax) Inverse(y float64) float64 { return Expm1(l.mm.Inverse(y)) }

// Range returns the fitted log-space bounds and whether Fit has run.
func (l *LogMinMax) Range() (lo, hi float64, ok bool) { return l.mm.Range() }

// RestoreRange re-establishes a previously fitted log-space range.
func (l *LogMinMax) RestoreRange(lo, hi float64) { l.mm.RestoreRange(lo, hi) }
