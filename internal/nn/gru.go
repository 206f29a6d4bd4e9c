package nn

import "repro/internal/mat"

// GRU is a single-layer gated recurrent unit processing whole sequences.
// Input at each timestep is a batch×In matrix; the hidden state is
// batch×Hidden. Forward caches everything Backward (truncated BPTT over the
// full sequence) needs.
//
//	z_t = σ(x_t·Wz + h_{t-1}·Uz + bz)
//	r_t = σ(x_t·Wr + h_{t-1}·Ur + br)
//	ĥ_t = tanh(x_t·Wh + (r_t ⊙ h_{t-1})·Uh + bh)
//	h_t = (1−z_t) ⊙ h_{t-1} + z_t ⊙ ĥ_t
//
// Training runs the fused inference step (FusedGRU.StepInfer) on gate
// weights packed into GRU-owned buffers, with one scratch per timestep: its
// z|r|ĥ block and r⊙h are the backward caches. Every pass writes into
// buffers the GRU owns, so returned matrices are valid until its next
// Forward or Backward.
type GRU struct {
	In, Hidden int

	Wz, Uz, Bz *Param
	Wr, Ur, Br *Param
	Wh, Uh, Bh *Param

	fused FusedGRU[float64]          // [Wz|Wr|Wh] and [Uz|Ur], repacked every Forward
	steps []FusedGRUScratch[float64] // per-timestep gates and r⊙h

	// Forward caches and outputs.
	xs    []*mat.Matrix
	h0    *mat.Matrix // initial state of the last Forward
	zero  mat.Matrix  // the zero initial state when Forward gets none
	hs    []mat.Matrix
	hsOut []*mat.Matrix

	// Backward workspace.
	dh, dhPrev            mat.Matrix // ping-pong ∂L/∂h buffers
	daZ, daR, daH, drh    mat.Matrix // gate pre-activation gradients; drh also holds dhPrev's products
	da, dzr               mat.Matrix // [daZ|daR|daH] and [daZ|daR]
	dwIn, dwU, dwUh, prod mat.Matrix
	dxs                   []mat.Matrix
	dxOut                 []*mat.Matrix
}

// NewGRU returns a GRU with zero weights; call InitXavier on the owning
// model to initialize.
func NewGRU(name string, in, hidden int) *GRU {
	return &GRU{
		In: in, Hidden: hidden,
		Wz: NewParam(name+".wz", in, hidden),
		Uz: NewParam(name+".uz", hidden, hidden),
		Bz: NewParam(name+".bz", 1, hidden),
		Wr: NewParam(name+".wr", in, hidden),
		Ur: NewParam(name+".ur", hidden, hidden),
		Br: NewParam(name+".br", 1, hidden),
		Wh: NewParam(name+".wh", in, hidden),
		Uh: NewParam(name+".uh", hidden, hidden),
		Bh: NewParam(name+".bh", 1, hidden),
	}
}

// Params implements Module.
func (g *GRU) Params() []*Param {
	return []*Param{g.Wz, g.Uz, g.Bz, g.Wr, g.Ur, g.Br, g.Wh, g.Uh, g.Bh}
}

// Forward runs the GRU over the sequence xs starting from h0 (zero state if
// nil) and returns the hidden state at every timestep. The inputs and h0
// must stay unchanged until the matching Backward.
func (g *GRU) Forward(xs []*mat.Matrix, h0 *mat.Matrix) []*mat.Matrix {
	g.xs = append(g.xs[:0], xs...)
	if len(xs) == 0 {
		return nil
	}
	rows, hid := xs[0].Rows, g.Hidden
	packGRU(&g.fused, g)
	if h0 == nil {
		h0 = g.zero.Reshape(rows, hid)
		h0.Zero()
	}
	g.h0 = h0
	if len(g.steps) < len(xs) {
		g.steps = append(g.steps, make([]FusedGRUScratch[float64], len(xs)-len(g.steps))...)
	}
	g.hs = growMats(g.hs, len(xs))
	g.hsOut = g.hsOut[:0]
	h := h0
	for t, x := range xs {
		next := g.hs[t].Reshape(rows, hid)
		g.fused.StepInfer(x.Data, h.Data, next.Data, rows, &g.steps[t])
		g.hsOut = append(g.hsOut, next)
		h = next
	}
	return g.hsOut
}

// Backward runs BPTT given dhs, the gradient of the loss with respect to
// each timestep's hidden state (entries may be nil for steps without direct
// loss). It accumulates parameter gradients and returns the gradient with
// respect to each timestep's input.
//
// The weight gradients come from two packed products per step,
// xᵀ·[daZ|daR|daH] and hPrevᵀ·[daZ|daR], plus (r⊙hPrev)ᵀ·daH. Each column of
// a MulTransA product depends only on that column of its right operand, so
// packing changes no bit; each product still lands in its own buffer before
// it is added into G. The input and hidden-state gradients keep one product
// per gate, summed in the order daH, daZ, daR: a packed a·bᵀ would reorder
// those sums.
func (g *GRU) Backward(dhs []*mat.Matrix) []*mat.Matrix {
	T := len(g.xs)
	if len(dhs) != T {
		panic("nn: GRU.Backward gradient count mismatch")
	}
	if T == 0 {
		return nil
	}
	rows, hid := g.xs[0].Rows, g.Hidden
	g.dxs = growMats(g.dxs, T)
	if cap(g.dxOut) < T {
		g.dxOut = make([]*mat.Matrix, T)
	}
	g.dxOut = g.dxOut[:T]
	// dNext is the gradient flowing from step t+1 into h_t; it becomes dh,
	// and the step's dhPrev becomes the next dNext.
	dNext, dPrev := g.dh.Reshape(rows, hid), g.dhPrev.Reshape(rows, hid)
	dNext.Zero()
	daZ, daR, daH := g.daZ.Reshape(rows, hid), g.daR.Reshape(rows, hid), g.daH.Reshape(rows, hid)
	drh := g.drh.Reshape(rows, hid)
	da, dzr := g.da.Reshape(rows, 3*hid), g.dzr.Reshape(rows, 2*hid)

	for t := T - 1; t >= 0; t-- {
		dh := dNext
		if dhs[t] != nil {
			dh.Add(dhs[t])
		}
		x, hPrev, sc := g.xs[t], g.h0, &g.steps[t]
		if t > 0 {
			hPrev = &g.hs[t-1]
		}

		// Elementwise gate gradients. The cached z|r|ĥ rows are the step's
		// activated gates.
		for i := 0; i < rows; i++ {
			gates := sc.g.row(i)
			z, hhat := gates[:hid], gates[2*hid:][:hid]
			dhr, hp := dh.Row(i)[:hid], hPrev.Row(i)[:hid]
			dz, dc, dp := daZ.Row(i)[:hid], daH.Row(i)[:hid], dPrev.Row(i)[:hid]
			for j, zj := range z {
				dz[j] = dhr[j] * (hhat[j] - hp[j]) * (zj * (1 - zj))
				dc[j] = dhr[j] * zj * (1 - hhat[j]*hhat[j])
				dp[j] = dhr[j] * (1 - zj)
			}
		}
		// Candidate gate: ĥ = tanh(aH), aH = xWh + (r⊙hPrev)Uh + bh.
		mat.MulTransBInto(drh, daH, g.Uh.W)
		// Reset gate: r = σ(aR); dr = drh ⊙ hPrev.
		for i := 0; i < rows; i++ {
			r := sc.g.row(i)[hid:][:hid]
			d, hp, dr, dp := drh.Row(i)[:hid], hPrev.Row(i)[:hid], daR.Row(i)[:hid], dPrev.Row(i)[:hid]
			for j, rj := range r {
				dr[j] = d[j] * hp[j] * (rj * (1 - rj))
				dp[j] += d[j] * rj
			}
		}

		packCols((*matrix[float64])(da), daZ, daR, daH)
		packCols((*matrix[float64])(dzr), daZ, daR)
		dwIn := g.dwIn.Reshape(g.In, 3*hid)
		mat.MulTransAInto(dwIn, x, da)
		addCols(dwIn, g.Wz.G, g.Wr.G, g.Wh.G)
		dwU := g.dwU.Reshape(hid, 2*hid)
		mat.MulTransAInto(dwU, hPrev, dzr)
		addCols(dwU, g.Uz.G, g.Ur.G)
		dwUh := g.dwUh.Reshape(hid, hid)
		mat.MulTransAInto(dwUh, (*mat.Matrix)(&sc.rh), daH)
		g.Uh.G.Add(dwUh)
		addColSums(g.Bz.G.Data, daZ)
		addColSums(g.Br.G.Data, daR)
		addColSums(g.Bh.G.Data, daH)

		dx, prod := g.dxs[t].Reshape(rows, g.In), g.prod.Reshape(rows, g.In)
		mat.MulTransBInto(dx, daH, g.Wh.W)
		mat.MulTransBInto(prod, daZ, g.Wz.W)
		dx.Add(prod)
		mat.MulTransBInto(prod, daR, g.Wr.W)
		dx.Add(prod)
		mat.MulTransBInto(drh, daZ, g.Uz.W)
		dPrev.Add(drh)
		mat.MulTransBInto(drh, daR, g.Ur.W)
		dPrev.Add(drh)

		g.dxOut[t] = dx
		dNext, dPrev = dPrev, dNext
	}
	return g.dxOut
}

// addCols adds src's column blocks, left to right, into dsts (each as
// wide as its block).
func addCols(src *mat.Matrix, dsts ...*mat.Matrix) {
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		for _, d := range dsts {
			dr := d.Row(i)
			for j, v := range row[:len(dr)] {
				dr[j] += v
			}
			row = row[len(dr):]
		}
	}
}
