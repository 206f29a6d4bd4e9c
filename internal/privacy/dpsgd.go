// Package privacy implements the differentially private training machinery
// NetShare's Insight 4 relies on: per-sample gradient clipping with Gaussian
// noise (DP-SGD, Abadi et al. 2016) and a Rényi-DP accountant for the
// subsampled Gaussian mechanism to convert (noise multiplier, sampling rate,
// steps) into an (ε, δ) guarantee.
package privacy

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/nn"
)

// DPSGDConfig holds the Gaussian-mechanism parameters of DP-SGD.
type DPSGDConfig struct {
	ClipNorm        float64 // per-sample L2 clipping bound C
	NoiseMultiplier float64 // σ: noise stddev is σ·C
	SampleRate      float64 // q: fraction of the dataset in each lot
	Delta           float64 // target δ for ε reporting
}

// Validate reports whether the configuration is usable.
func (c DPSGDConfig) Validate() error {
	if c.ClipNorm <= 0 {
		return fmt.Errorf("privacy: clip norm must be positive, got %v", c.ClipNorm)
	}
	if c.NoiseMultiplier < 0 {
		return fmt.Errorf("privacy: noise multiplier must be non-negative, got %v", c.NoiseMultiplier)
	}
	if c.SampleRate <= 0 || c.SampleRate > 1 {
		return fmt.Errorf("privacy: sample rate must be in (0,1], got %v", c.SampleRate)
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		return fmt.Errorf("privacy: delta must be in (0,1), got %v", c.Delta)
	}
	return nil
}

// DPSGD wraps per-sample clipping and noise addition around a module's
// gradients. The training loop computes each sample's gradients
// separately, clips each (GradVec, ClipVec), sums them (TreeReduce) and
// adds the sum with AccumulateLot, then calls Finalize once per lot
// before the optimizer step.
type DPSGD struct {
	Config DPSGDConfig

	rand  *rand.Rand
	steps int

	// clipped per-lot gradient sums, keyed by parameter position
	sums [][]float64
}

// NewDPSGD returns a DP-SGD wrapper. r drives the Gaussian noise.
func NewDPSGD(cfg DPSGDConfig, r *rand.Rand) (*DPSGD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DPSGD{Config: cfg, rand: r}, nil
}

// sumsMatch reports whether the lot buffers fit the module's parameters.
func (d *DPSGD) sumsMatch(ps []*nn.Param) bool {
	if len(d.sums) != len(ps) {
		return false
	}
	for i, p := range ps {
		if len(d.sums[i]) != len(p.G.Data) {
			return false
		}
	}
	return true
}

// Finalize adds calibrated Gaussian noise to the lot sum, divides by
// lotSize, and writes the result into the module's gradients so a normal
// optimizer step can follow. It counts one DP-SGD step.
func (d *DPSGD) Finalize(m nn.Module, lotSize int) {
	if lotSize <= 0 {
		panic("privacy: lot size must be positive")
	}
	std := d.Config.NoiseMultiplier * d.Config.ClipNorm
	inv := 1 / float64(lotSize)
	for i, p := range m.Params() {
		for j := range p.G.Data {
			noise := 0.0
			if std > 0 {
				noise = d.rand.NormFloat64() * std
			}
			p.G.Data[j] = (d.sums[i][j] + noise) * inv
			d.sums[i][j] = 0
		}
	}
	d.steps++
}

// Steps returns the number of completed DP-SGD steps.
func (d *DPSGD) Steps() int { return d.steps }

// Epsilon returns the (ε, δ) guarantee spent so far.
func (d *DPSGD) Epsilon() float64 {
	return ComputeEpsilon(d.Config.NoiseMultiplier, d.Config.SampleRate, d.steps, d.Config.Delta)
}

// rdpOrders are the Rényi orders the accountant evaluates, matching the
// default grid used by tensorflow-privacy.
var rdpOrders = func() []float64 {
	var out []float64
	for a := 1.25; a < 2; a += 0.25 {
		out = append(out, a)
	}
	for a := 2.0; a <= 64; a++ {
		out = append(out, a)
	}
	out = append(out, 128, 256, 512)
	return out
}()

// ComputeRDP returns the Rényi divergence bound of the subsampled Gaussian
// mechanism at order alpha after `steps` compositions, with sampling rate q
// and noise multiplier sigma. It uses the standard upper bound
//
//	RDP(α) ≤ steps · (1/(α−1)) · log( Σ_{k=0}^{α} C(α,k) (1−q)^{α−k} q^k · exp(k(k−1)/(2σ²)) )
//
// for integer α (Mironov et al., "Rényi Differential Privacy of the Sampled
// Gaussian Mechanism"), and linear interpolation between integer orders for
// fractional α. For q == 1 it is exactly steps·α/(2σ²).
func ComputeRDP(sigma, q float64, steps int, alpha float64) float64 {
	if sigma == 0 {
		return math.Inf(1)
	}
	if q >= 1 {
		return float64(steps) * alpha / (2 * sigma * sigma)
	}
	if alpha == math.Floor(alpha) {
		return float64(steps) * rdpIntOrder(sigma, q, int(alpha))
	}
	lo := math.Floor(alpha)
	hi := lo + 1
	rlo := rdpIntOrder(sigma, q, int(lo))
	rhi := rdpIntOrder(sigma, q, int(hi))
	frac := alpha - lo
	return float64(steps) * (rlo + frac*(rhi-rlo))
}

// rdpIntOrder computes the per-step RDP of the sampled Gaussian mechanism at
// integer order alpha using a log-sum-exp over the binomial expansion.
func rdpIntOrder(sigma, q float64, alpha int) float64 {
	if alpha < 2 {
		alpha = 2
	}
	logQ := math.Log(q)
	log1Q := math.Log1p(-q)
	maxTerm := math.Inf(-1)
	terms := make([]float64, alpha+1)
	for k := 0; k <= alpha; k++ {
		t := logBinom(alpha, k) + float64(alpha-k)*log1Q + float64(k)*logQ +
			float64(k*(k-1))/(2*sigma*sigma)
		terms[k] = t
		if t > maxTerm {
			maxTerm = t
		}
	}
	var sum float64
	for _, t := range terms {
		sum += math.Exp(t - maxTerm)
	}
	logSum := maxTerm + math.Log(sum)
	return logSum / float64(alpha-1)
}

func logBinom(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// ComputeEpsilon converts the accountant state to an (ε, δ) guarantee by
// minimizing over Rényi orders: ε = min_α RDP(α) + log(1/δ)/(α−1).
func ComputeEpsilon(sigma, q float64, steps int, delta float64) float64 {
	if steps == 0 {
		return 0
	}
	if sigma == 0 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for _, a := range rdpOrders {
		if a <= 1 {
			continue
		}
		rdp := ComputeRDP(sigma, q, steps, a)
		eps := rdp + math.Log(1/delta)/(a-1)
		if eps < best {
			best = eps
		}
	}
	return best
}

// NoiseForEpsilon searches for the smallest noise multiplier σ that keeps
// ComputeEpsilon within targetEps after `steps` steps at sampling rate q.
// It returns 0 when even σ=0... is insufficient (never happens for finite
// targets) and caps the search at sigmaMax.
func NoiseForEpsilon(targetEps, q float64, steps int, delta float64) float64 {
	lo, hi := 1e-3, 1e3
	if ComputeEpsilon(hi, q, steps, delta) > targetEps {
		return hi
	}
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi)
		if ComputeEpsilon(mid, q, steps, delta) > targetEps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
