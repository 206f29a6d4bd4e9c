package baselines

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/trace"
)

// TestTabularGANTrainingGolden pins the tabular WGAN-GP engine's training:
// the SHA-256 of every trained generator and critic weight's bits followed
// by the CSV the trained baseline generates. CTGAN on flows runs the
// unconditional path, PacketCGAN the conditioning prefix. The weight bits
// catch a one-ulp change that the generated records would absorb.
func TestTabularGANTrainingGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(*bytes.Buffer) (*tabularGAN, error)
		want string
	}{
		{"ctgan-flows", func(buf *bytes.Buffer) (*tabularGAN, error) {
			m, err := TrainCTGANFlows(datasets.UGR16(300, 41), 40, 41)
			if err != nil {
				return nil, err
			}
			return m.gan, trace.WriteFlowCSV(buf, m.Generate(150))
		}, "5bce7c50d9f98269825f601c32ed4d5a95c3268454eed29ae62ce0b37e61a6a3"},
		{"packet-cgan", func(buf *bytes.Buffer) (*tabularGAN, error) {
			m, err := TrainPacketCGAN(datasets.CAIDA(300, 42), 40, 42)
			if err != nil {
				return nil, err
			}
			return m.gan, trace.WritePacketCSV(buf, m.Generate(150))
		}, "3e8f652fc3e2e54e5682cc01b484e2f97955a2600786d18502461792bdc9316b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var csv bytes.Buffer
			g, err := tc.run(&csv)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, p := range append(g.gen.Params(), g.critic.Params()...) {
				for _, v := range p.W.Data {
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
				}
			}
			h.Write(csv.Bytes())
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("training digest %s, want %s", got, tc.want)
			}
		})
	}
}
