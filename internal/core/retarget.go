package core

import (
	"fmt"
	"math/rand"

	"repro/internal/rng"
	"repro/internal/trace"
)

// Attribute retraining (paper §5, second privacy extension): "Specific
// attributes (e.g., IP addresses/port numbers/protocol) can be retrained
// to a user-desired distribution to further protect the privacy." The
// functions below resample one attribute of a generated trace according to
// a caller-supplied distribution, keeping the port↔protocol relationship
// consistent so the result still passes the Appendix B checks.

// Distribution is a weighted set of values for one attribute.
type Distribution[T comparable] struct {
	Values  []T
	Weights []float64
}

// Validate reports whether the distribution is usable.
func (d Distribution[T]) Validate() error {
	if len(d.Values) == 0 || len(d.Values) != len(d.Weights) {
		return fmt.Errorf("core: distribution needs matching values/weights, got %d/%d",
			len(d.Values), len(d.Weights))
	}
	var total float64
	for _, w := range d.Weights {
		if w < 0 {
			return fmt.Errorf("core: negative weight")
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("core: weights sum to zero")
	}
	return nil
}

func (d Distribution[T]) sampler() *rng.Categorical {
	return rng.NewCategorical(d.Weights)
}

// RetargetDstPorts resamples every record's destination port from the
// given distribution. When a drawn port pins a protocol (80 → TCP, ...),
// the record's protocol is updated to stay consistent.
func RetargetDstPorts(t *trace.FlowTrace, dist Distribution[uint16], seed int64) error {
	if err := dist.Validate(); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	s := dist.sampler()
	for i := range t.Records {
		port := dist.Values[s.Draw(r)]
		t.Records[i].Tuple.DstPort = port
		if want := trace.PortProtocol(port); want != 0 {
			t.Records[i].Tuple.Proto = want
		}
	}
	return nil
}

// RetargetProtocols resamples every record's protocol. Records whose
// destination port pins a different protocol keep the pinned one, so the
// result remains Appendix B Test 3 compliant.
func RetargetProtocols(t *trace.FlowTrace, dist Distribution[trace.Protocol], seed int64) error {
	if err := dist.Validate(); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	s := dist.sampler()
	for i := range t.Records {
		proto := dist.Values[s.Draw(r)]
		if want := trace.PortProtocol(t.Records[i].Tuple.DstPort); want != 0 {
			proto = want
		}
		t.Records[i].Tuple.Proto = proto
	}
	return nil
}

// RetargetSrcIPs resamples every record's source address from the given
// distribution (e.g., a user-supplied private pool).
func RetargetSrcIPs(t *trace.FlowTrace, dist Distribution[trace.IPv4], seed int64) error {
	if err := dist.Validate(); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	s := dist.sampler()
	for i := range t.Records {
		t.Records[i].Tuple.SrcIP = dist.Values[s.Draw(r)]
	}
	return nil
}
