package core

// This file is the host-level analogue of the paper's assembly-code
// optimization (§IV-C-4: "manual loop unroll and instruction scheduling"):
// a D3Q19-specialised fused kernel with the direction loops unrolled,
// the ±1/0 velocity components folded into the address arithmetic and the
// moment sums, and the per-direction equilibrium expressions expanded.
//
// The unrolling is arranged so every floating-point operation happens in
// exactly the order of the generic kernel (terms multiplied by zero are
// exact no-ops and may be dropped; ±1 multiplications are exact), so the
// results are bit-identical to stepRegionGeneric — verified by tests.
// The fast path covers the common DNS configuration (no LES, no body
// force); other configurations fall back to the generic kernel.

import (
	"math"

	"sunwaylb/internal/lattice"
)

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

// useFastPath reports whether the unrolled kernel applies.
func (l *Lattice) useFastPath() bool {
	return l.Desc == &lattice.D3Q19 && l.Smagorinsky == 0 &&
		l.Force == [3]float64{} && !l.noFastPath
}

// stepRegionD3Q19 is the unrolled fused pull collide–stream kernel.
//
// Per-cell traffic on the clean (all-fluid-neighbour) path: 19 pulls +
// 19 pushes of float64 plus the ~20 flag bytes of the clean check — the
// paper's §III-B ~380 B/cell fused-step budget.
//
//lbm:hot traffic budget=380
func (l *Lattice) stepRegionD3Q19(x0, x1, y0, y1 int) {
	src := l.F[l.src]
	dst := l.Dst()
	n := l.N
	nTau := -1.0 / l.Tau
	flags := l.Flags
	d := l.Desc

	// Neighbour offsets, hoisted.
	var off [19]int
	copy(off[:], l.offs)

	var f [19]float64
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			rowBase := l.Idx(x, y, 0)
			for z := 0; z < l.NZ; z++ {
				idx := rowBase + z
				if flags[idx] != Fluid {
					continue
				}
				// Gather with bounce-back, unrolled. A wall
				// neighbour reflects the cell's own opposite
				// population; a moving wall is rare enough to
				// share the generic helper.
				clean := true
				for i := 1; i < 19; i++ {
					from := idx - off[i]
					if fl := flags[from]; fl == Wall || fl == MovingWall {
						clean = false
						break
					}
				}
				if clean {
					f[0] = src[idx]
					f[1] = src[1*n+idx-off[1]]
					f[2] = src[2*n+idx-off[2]]
					f[3] = src[3*n+idx-off[3]]
					f[4] = src[4*n+idx-off[4]]
					f[5] = src[5*n+idx-off[5]]
					f[6] = src[6*n+idx-off[6]]
					f[7] = src[7*n+idx-off[7]]
					f[8] = src[8*n+idx-off[8]]
					f[9] = src[9*n+idx-off[9]]
					f[10] = src[10*n+idx-off[10]]
					f[11] = src[11*n+idx-off[11]]
					f[12] = src[12*n+idx-off[12]]
					f[13] = src[13*n+idx-off[13]]
					f[14] = src[14*n+idx-off[14]]
					f[15] = src[15*n+idx-off[15]]
					f[16] = src[16*n+idx-off[16]]
					f[17] = src[17*n+idx-off[17]]
					f[18] = src[18*n+idx-off[18]]
				} else {
					for i := 0; i < 19; i++ {
						from := idx - off[i]
						switch flags[from] {
						case Wall:
							f[i] = src[d.Opp[i]*n+idx]
						case MovingWall:
							uw := l.WallVel[from]
							c := d.C[i]
							cu := float64(c[0])*uw[0] + float64(c[1])*uw[1] + float64(c[2])*uw[2]
							f[i] = src[d.Opp[i]*n+idx] + 6*d.W[i]*cu
						default:
							f[i] = src[i*n+from]
						}
					}
				}

				// Moments, unrolled in ascending direction order
				// (the +0 terms of the generic loop are exact
				// no-ops).
				rho := f[0] + f[1] + f[2] + f[3] + f[4] + f[5] + f[6] +
					f[7] + f[8] + f[9] + f[10] + f[11] + f[12] + f[13] +
					f[14] + f[15] + f[16] + f[17] + f[18]
				jx := f[1] - f[2] + f[7] - f[8] + f[9] - f[10] + f[11] - f[12] + f[13] - f[14]
				jy := f[3] - f[4] + f[7] - f[8] - f[9] + f[10] + f[15] - f[16] + f[17] - f[18]
				jz := f[5] - f[6] + f[11] - f[12] - f[13] + f[14] + f[15] - f[16] - f[17] + f[18]
				invRho := 1.0 / rho
				ux, uy, uz := jx*invRho, jy*invRho, jz*invRho
				onem := 1 - 1.5*math.FMA(uz, uz, math.FMA(uy, uy, ux*ux))
				wr1, wr2 := w1*rho, w2*rho

				// Canonical FMA collide (see lattice.Equilibrium), with
				// every ± direction pair sharing the symmetric part
				// s = fma(4.5cu, cu, 1−1.5|u|²) of its two equilibria:
				// feq_± = wr·(s ± 3cu). Negation, the 4.5cu·cu product
				// and s are sign-symmetric, so this reproduces the
				// per-direction canon — and the generic kernel — bit
				// for bit.
				dst[idx] = math.FMA(nTau, f[0]-w0*rho*onem, f[0])
				pair := func(i, o int, cu, wr float64) {
					h := 4.5 * cu
					s := math.FMA(h, cu, onem)
					c3 := 3 * cu
					dst[i*n+idx] = math.FMA(nTau, f[i]-wr*(s+c3), f[i])
					dst[o*n+idx] = math.FMA(nTau, f[o]-wr*(s-c3), f[o])
				}
				pair(1, 2, ux, wr1)
				pair(3, 4, uy, wr1)
				pair(5, 6, uz, wr1)
				pair(7, 8, ux+uy, wr2)
				pair(9, 10, ux-uy, wr2)
				pair(11, 12, ux+uz, wr2)
				pair(13, 14, ux-uz, wr2)
				pair(15, 16, uy+uz, wr2)
				pair(17, 18, uy-uz, wr2)
			}
		}
	}
}
