package store

import (
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// FuzzBlockDecode throws arbitrary bytes at the block decoder: it must
// either decode cleanly or fail with a typed error, never panic or
// over-allocate, and anything it accepts must re-encode and decode to
// the same values.
func FuzzBlockDecode(f *testing.F) {
	f.Add(encodeBlock([]int64{1, 2, 3, -4, 1 << 40}))
	f.Add(encodeBlock(make([]int64, 4096)))
	f.Add(encodeBlock(nil))
	f.Add([]byte{encDict, 3, 2, 0, 4, 0, 1, 1})
	f.Add([]byte{encFlate, 0x01, 0x02})
	f.Add([]byte{encDelta, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		vals, err := decodeBlock(payload, -1)
		if err != nil {
			return
		}
		back, err := decodeBlock(encodeBlock(vals), len(vals))
		if err != nil {
			t.Fatalf("re-encode of accepted block failed: %v", err)
		}
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("value %d: %d != %d after re-encode", i, back[i], vals[i])
			}
		}
	})
}

// FuzzQueryFilter parses arbitrary filter strings and, when they parse,
// runs them against a small store: parsing must never panic, and every
// parsed filter must query cleanly with consistent stats.
func FuzzQueryFilter(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "fuzz.store")
	if _, err := Write(dir, fuzzFlowTrace(), Options{BlockRows: 32, PartitionRows: 64}); err != nil {
		f.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Add("src_ip=10.0.0.1,dst_port=443")
	f.Add("proto=tcp,label=dos")
	f.Add("src_port=80")
	f.Add("dst_ip=192.168.1.3,proto=17")
	f.Add("")
	f.Add("label=benign,label=xss")
	f.Fuzz(func(t *testing.T, expr string) {
		flt, err := ParseFilter(expr)
		if err != nil {
			return
		}
		n, st, err := s.Count(flt)
		if err != nil {
			t.Fatalf("count with parsed filter %q: %v", expr, err)
		}
		if n != st.RowsMatched {
			t.Fatalf("count %d != stats.RowsMatched %d", n, st.RowsMatched)
		}
		if n > st.RowsScanned || st.RowsScanned > s.Rows() {
			t.Fatalf("impossible stats %+v for %d rows", st, s.Rows())
		}
		recs, _, err := s.QueryFlows(flt, 0)
		if err != nil || int64(len(recs)) != n {
			t.Fatalf("QueryFlows returned %d rows err=%v, Count said %d", len(recs), err, n)
		}
	})
}

func fuzzFlowTrace() *trace.FlowTrace {
	t := &trace.FlowTrace{}
	for i := 0; i < 200; i++ {
		t.Records = append(t.Records, trace.FlowRecord{
			Tuple: trace.FiveTuple{
				SrcIP:   trace.IPv4FromBytes(10, 0, 0, byte(i%3)),
				DstIP:   trace.IPv4FromBytes(192, 168, 1, byte(i%5)),
				SrcPort: uint16(80 + i%3),
				DstPort: []uint16{443, 53}[i%2],
				Proto:   []trace.Protocol{trace.TCP, trace.UDP}[i%2],
			},
			Start:    int64(i) * 100,
			Duration: int64(i % 7),
			Packets:  int64(i % 5),
			Bytes:    int64(i % 1000),
			Label:    trace.Label(i % 3),
		})
	}
	return t
}
