package boundary

import "math"

// The D3Q19 row of the computed conditions: PressureOutlet's moments and
// equilibria unrolled over a staged chunk, the way core's unrolled AA row
// unrolls the collide. Terms multiplied by zero are dropped (exact: a sum
// that starts at +0 never turns −0, so adding ±0 never changes it, and a
// zero-valued moment's sign never reaches an equilibrium), ±1 factors
// fold into the signs, each ± direction pair shares one
// fma(h, cu, onem), and every remaining operation runs in the order of
// lattice.Descriptor's Moments and EquilibriumAll, so the results are
// bitwise the generic path's. D2Q9, D3Q15 and D3Q27 lattices keep that
// path.
//
// D3Q19 direction index map (see lattice.D3Q19):
//
//	 0: ( 0, 0, 0)   1: (+1, 0, 0)   2: (−1, 0, 0)   3: ( 0,+1, 0)
//	 4: ( 0,−1, 0)   5: ( 0, 0,+1)   6: ( 0, 0,−1)   7: (+1,+1, 0)
//	 8: (−1,−1, 0)   9: (+1,−1, 0)  10: (−1,+1, 0)  11: (+1, 0,+1)
//	12: (−1, 0,−1)  13: (+1, 0,−1)  14: (−1, 0,+1)  15: ( 0,+1,+1)
//	16: ( 0,−1,−1)  17: ( 0,+1,−1)  18: ( 0,−1,+1)
const (
	w0 = 1.0 / 3.0
	w1 = 1.0 / 18.0
	w2 = 1.0 / 36.0
)

// outletRowD3Q19 replaces staged cells c < n of b by the equilibrium at
// density rho and each cell's own velocity (zero where its density is not
// positive): PressureOutlet's per-cell arithmetic.
//
// Per-cell traffic, all in stack scratch: the moments pass loads the 19
// staged populations and stores 3 velocity components, the equilibrium
// pass loads the 3 and stores 19 populations.
//
//lbm:hot traffic budget=352
func outletRowD3Q19(b *block, n int, rho float64) {
	g0 := b[0*chunk : 0*chunk+n]
	g1 := b[1*chunk : 1*chunk+n]
	g2 := b[2*chunk : 2*chunk+n]
	g3 := b[3*chunk : 3*chunk+n]
	g4 := b[4*chunk : 4*chunk+n]
	g5 := b[5*chunk : 5*chunk+n]
	g6 := b[6*chunk : 6*chunk+n]
	g7 := b[7*chunk : 7*chunk+n]
	g8 := b[8*chunk : 8*chunk+n]
	g9 := b[9*chunk : 9*chunk+n]
	g10 := b[10*chunk : 10*chunk+n]
	g11 := b[11*chunk : 11*chunk+n]
	g12 := b[12*chunk : 12*chunk+n]
	g13 := b[13*chunk : 13*chunk+n]
	g14 := b[14*chunk : 14*chunk+n]
	g15 := b[15*chunk : 15*chunk+n]
	g16 := b[16*chunk : 16*chunk+n]
	g17 := b[17*chunk : 17*chunk+n]
	g18 := b[18*chunk : 18*chunk+n]
	// Two passes over the chunk: the moments, then the equilibria. Each
	// cell's density is one long chain of dependent adds; kept apart from
	// the equilibria, the chains of neighbouring cells overlap.
	var vel [3][chunk]float64
	vx, vy, vz := vel[0][:n], vel[1][:n], vel[2][:n]
	for c := 0; c < n; c++ {
		f0 := g0[c]
		f1 := g1[c]
		f2 := g2[c]
		f3 := g3[c]
		f4 := g4[c]
		f5 := g5[c]
		f6 := g6[c]
		f7 := g7[c]
		f8 := g8[c]
		f9 := g9[c]
		f10 := g10[c]
		f11 := g11[c]
		f12 := g12[c]
		f13 := g13[c]
		f14 := g14[c]
		f15 := g15[c]
		f16 := g16[c]
		f17 := g17[c]
		f18 := g18[c]

		r := f0 + f1 + f2 + f3 + f4 + f5 + f6 +
			f7 + f8 + f9 + f10 + f11 + f12 + f13 +
			f14 + f15 + f16 + f17 + f18
		if r > 0 {
			vx[c] = (f1 - f2 + f7 - f8 + f9 - f10 + f11 - f12 + f13 - f14) / r
			vy[c] = (f3 - f4 + f7 - f8 - f9 + f10 + f15 - f16 + f17 - f18) / r
			vz[c] = (f5 - f6 + f11 - f12 - f13 + f14 + f15 - f16 - f17 + f18) / r
		}
	}
	wr0, wr1, wr2 := w0*rho, w1*rho, w2*rho
	for c := 0; c < n; c++ {
		ux, uy, uz := vx[c], vy[c], vz[c]
		onem := 1 - 1.5*math.FMA(uz, uz, math.FMA(uy, uy, ux*ux))

		g0[c] = wr0 * onem
		cu := ux
		h := 4.5 * cu
		s := math.FMA(h, cu, onem)
		c3 := 3 * cu
		g1[c] = wr1 * (s + c3)
		g2[c] = wr1 * (s - c3)
		cu = uy
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g3[c] = wr1 * (s + c3)
		g4[c] = wr1 * (s - c3)
		cu = uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g5[c] = wr1 * (s + c3)
		g6[c] = wr1 * (s - c3)
		cu = ux + uy
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g7[c] = wr2 * (s + c3)
		g8[c] = wr2 * (s - c3)
		cu = ux - uy
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g9[c] = wr2 * (s + c3)
		g10[c] = wr2 * (s - c3)
		cu = ux + uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g11[c] = wr2 * (s + c3)
		g12[c] = wr2 * (s - c3)
		cu = ux - uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g13[c] = wr2 * (s + c3)
		g14[c] = wr2 * (s - c3)
		cu = uy + uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g15[c] = wr2 * (s + c3)
		g16[c] = wr2 * (s - c3)
		cu = uy - uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g17[c] = wr2 * (s + c3)
		g18[c] = wr2 * (s - c3)
	}
}
