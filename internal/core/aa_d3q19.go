package core

import (
	"math"

	"sunwaylb/internal/lattice"
)

// D3Q19-specialised AA kernels: the host-level analogue of the paper's
// assembly-code optimization (§IV-C-4: "manual loop unroll and instruction
// scheduling"), and the one hand-tuned copy of the collide order beside
// Collider.Relax. The direction loops are unrolled, the ±1/0 velocity
// components folded into the address arithmetic and the moment sums, and
// the per-direction equilibrium expressions expanded — arranged so every
// floating-point operation happens in exactly the order of the operator
// (terms multiplied by zero are exact no-ops and may be dropped; ±1
// multiplications are exact), so the results are bit-identical to
// stepGeneric, which tests verify through the noFastPath hook. The
// unrolled row covers the common DNS configuration (AA storage, no LES, no
// body force); every other configuration steps the generic sweep.
//
// The key structural trick: at both parities, the scatter slot of
// population i for a row of cells is exactly the gather slice of
// population Opp[i] for the same row —
//
//	even: gather_i    = src[i*n + idx − off[i]]
//	      scatter_i   = src[Opp[i]*n + idx + off[i]] = gather_{Opp[i]}
//	odd:  gather_i    = src[Opp[i]*n + idx]
//	      scatter_i   = src[i*n + idx]               = gather_{Opp[i]}
//
// (using off[Opp[i]] = −off[i]). So one sweep, stepAAD3Q19, and one row
// body, aaRowD3Q19, serve both parities: the sweep bases the 19 gather
// slices from its phase's table, and the body loads f_i from g[i][k] and
// stores the relaxed population i into g[Opp[i]][k]. Per cell it touches
// the scatter slot only after gathering the cell's full stencil, and no
// other cell ever reads a slot this cell writes (the AA disjointness
// invariant, see aa.go), so the in-place row sweep is exact in any order.
//
// Hoisting each direction's row into a slice gives the inner z loop
// constant-bound indexing (bounds checks hoisted), contiguous streaming
// loads/stores, and no per-cell neighbour-flag probing: mixed rows — any
// wall in the 3×3 neighbouring rows or a non-fluid cell in the row itself —
// fall back to stepGeneric for exactly that row, preserving bit-identity.
// The sweep classifies the rows as it goes (forRows), reading each row's
// flags once.

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

// useFastPath reports whether the unrolled D3Q19 AA row applies.
func (l *Lattice) useFastPath() bool {
	return l.aa && l.Desc == &lattice.D3Q19 && l.Smagorinsky == 0 &&
		l.Force == [3]float64{} && !l.noFastPath
}

// Row summary bits: what one allocated z-row's flags say about the rows
// whose stencils reach it.
const (
	rowWall     = 1 // a Wall or MovingWall anywhere in the allocated row
	rowNotFluid = 2 // an interior cell that is not Fluid
)

// rowChunk is the x extent of the sweep's flag window: three lines of
// rowChunk+2 row summaries, on the stack.
const rowChunk = 64

// rowSummary reads the AZ flags of one allocated z-row once. Fluid, Wall,
// MovingWall and Ghost are 0…3, and their Gray code f ^ f>>1 is non-zero
// exactly for the non-Fluid types and has bit 0 set exactly for the two
// wall types, so one OR per interior cell answers both questions. The
// interior runs eight flags per word: the shift moves a lane's bit 0 into
// bit 7 of the lane below, which changes neither answer (the wall test
// reads bit 0 only, and a flag with bit 0 set is non-Fluid, so its own
// lane is non-zero already).
//
// Per-cell traffic: its flag byte.
//
//lbm:hot traffic budget=1
func rowSummary(row []CellType) uint8 {
	const lanes = 0x0101010101010101
	last := len(row) - 1
	in := row[1:last]
	var g uint64
	for ; len(in) >= 8; in = in[8:] {
		w := uint64(in[0]) | uint64(in[1])<<8 | uint64(in[2])<<16 | uint64(in[3])<<24 |
			uint64(in[4])<<32 | uint64(in[5])<<40 | uint64(in[6])<<48 | uint64(in[7])<<56
		g |= w ^ w>>1
	}
	for _, f := range in {
		g |= uint64(f ^ f>>1)
	}
	ends := uint64(row[0]^row[0]>>1) | uint64(row[last]^row[last]>>1)
	var s uint8
	if (g|ends)&lanes != 0 {
		s = rowWall
	}
	if g != 0 {
		s |= rowNotFluid
	}
	return s
}

// summarize fills s[k] with the summary of allocated row (xc−1+k, y) for
// xc−1 ≤ x ≤ xe: one contiguous run of flags.
func (l *Lattice) summarize(s *[rowChunk + 2]uint8, xc, xe, y int) {
	b, az := l.Idx(xc-1, y, -1), l.AZ
	for k := 0; k <= xe-xc+1; k++ {
		s[k] = rowSummary(l.Flags[b : b+az])
		b += az
	}
}

// forRows visits every interior z-row of the region x0 ≤ x < x1,
// y0 ≤ y < y1 and says whether it is mixed — one of its own cells is not
// Fluid, or a Wall/MovingWall lies anywhere in the 3×3 allocated z-rows
// around it (every cell its stencils reach) — so the unrolled row must
// not run there. A non-nil rowDone(y) runs once row y has been visited for
// every x (during the last x-chunk pass when x1−x0 > rowChunk), in
// increasing y. Each allocated row's flags are read once per call into
// a summary; a rolling window of three summary lines then decides each
// row with nine byte ORs. Nothing derived from the flags outlives the
// call, so no writer of Flags has a cache to invalidate.
//
// Per-row traffic: the nine window bytes (the one flag byte per allocated
// cell is priced in rowSummary).
//
//lbm:hot traffic budget=9
func (l *Lattice) forRows(x0, x1, y0, y1 int, visit func(x, y int, mixed bool), rowDone func(y int)) {
	var win [3][rowChunk + 2]uint8
	for xc := x0; xc < x1; xc += rowChunk {
		xe := min(xc+rowChunk, x1)
		l.summarize(&win[0], xc, xe, y0-1)
		l.summarize(&win[1], xc, xe, y0)
		for y := y0; y < y1; y++ {
			lo, mid, hi := &win[(y-y0)%3], &win[(y-y0+1)%3], &win[(y-y0+2)%3]
			l.summarize(hi, xc, xe, y+1)
			for x := xc; x < xe; x++ {
				j := x - xc
				walls := lo[j] | lo[j+1] | lo[j+2] | mid[j] | mid[j+2] | hi[j] | hi[j+1] | hi[j+2]
				visit(x, y, (walls&rowWall)|mid[j+1] != 0)
			}
			if rowDone != nil && xe == x1 {
				rowDone(y)
			}
		}
	}
}

// stepAAD3Q19 is the unrolled AA sweep at either parity, per z-row over
// hoisted slices; mixed rows step the generic sweep. The phases differ
// only in where the gather slices start (see above): the even step pulls
// from src[i*n − off[i] + row] (planRow, which bases a row next to an
// axis w marks across the wrap; under an empty w every base is that
// one and the row's copies have nothing to move), the odd one from
// src[Opp[i]*n + row], and an odd sweep that wraps z copies each row's z
// ends for the next (wrap.go). rowDone, if non-nil, is forRows'.
//
// Per-cell traffic on the clean path: 19 pulls + 19 pushes of float64
// within the single AA array plus one flag byte of the row classification
// (forRows) — below the two-buffer 380 B/cell budget because the second
// stream of write-allocated destination lines is gone. The end cells'
// copies across a wrap are priced in keepIn, endsOut and wrapEnds.
//
//lbm:hot traffic budget=360
func (l *Lattice) stepAAD3Q19(x0, x1, y0, y1 int, w Wrap, rowDone func(y int)) {
	src := l.F[l.src]
	nTau := -1.0 / l.Tau
	nz := l.NZ
	odd := l.step&1 == 1
	var base [19]int
	for i := 0; i < 19; i++ {
		base[i] = l.Desc.Opp[i] * l.N
	}
	var g [19][]float64
	r := l.newAcross(w)
	l.forRows(x0, x1, y0, y1, func(x, y int, mixed bool) {
		if mixed {
			l.stepGeneric(x, x+1, y, y+1, w)
			return
		}
		if odd {
			rowBase := l.Idx(x, y, 0)
			for i := 0; i < 19; i++ {
				b := base[i] + rowBase
				g[i] = src[b : b+nz]
			}
			aaRowD3Q19(&g, nz, nTau)
			if w[2] {
				r.wrapEnds(src, rowBase, nz, r.cUp, r.cDown)
			}
			return
		}
		l.planRow(&r, x, y)
		for i := 0; i < 19; i++ {
			b := r.b[i]
			g[i] = src[b : b+nz]
		}
		r.keepIn(src, nz)
		aaRowD3Q19(&g, nz, nTau)
		r.endsOut(src, nz)
		r.restore(src, nz)
	}, rowDone)
}

// aaRowD3Q19 collide-streams one clean (all-fluid stencil) row of nz
// cells in place: f_i comes from g[i][k] and the relaxed population i is
// stored into g[Opp[i]][k]. When the CPU supports AVX-512F the bulk of
// the row runs 8 cells wide in aaRowD3Q19AVX512 — the vector kernel
// executes the identical per-lane operation order, so its results stay
// bit-identical to the scalar canon — and aaRowD3Q19Scalar sweeps the
// nz mod 8 tail.
func aaRowD3Q19(g *[19][]float64, nz int, nTau float64) {
	lo := 0
	if useAVX512 && nz >= 8 {
		blocks := nz / 8
		aaRowD3Q19AVX512(g, blocks, nTau, &aaKTab)
		lo = blocks * 8
	}
	if lo < nz {
		aaRowD3Q19Scalar(g, lo, nz, nTau)
	}
}

// aaRowD3Q19Scalar is the scalar row body for cells [lo, hi). The
// floating-point operation order is exactly that of Collider.Relax, so
// the results are bit-identical to the double-buffer reference.
//
// Per-cell traffic: 19 float64 loads + 19 float64 stores in one array.
//
//lbm:hot traffic budget=360
func aaRowD3Q19Scalar(g *[19][]float64, lo, hi int, nTau float64) {
	g0 := g[0][:hi]
	g1 := g[1][:hi]
	g2 := g[2][:hi]
	g3 := g[3][:hi]
	g4 := g[4][:hi]
	g5 := g[5][:hi]
	g6 := g[6][:hi]
	g7 := g[7][:hi]
	g8 := g[8][:hi]
	g9 := g[9][:hi]
	g10 := g[10][:hi]
	g11 := g[11][:hi]
	g12 := g[12][:hi]
	g13 := g[13][:hi]
	g14 := g[14][:hi]
	g15 := g[15][:hi]
	g16 := g[16][:hi]
	g17 := g[17][:hi]
	g18 := g[18][:hi]
	for k := lo; k < hi; k++ {
		f0 := g0[k]
		f1 := g1[k]
		f2 := g2[k]
		f3 := g3[k]
		f4 := g4[k]
		f5 := g5[k]
		f6 := g6[k]
		f7 := g7[k]
		f8 := g8[k]
		f9 := g9[k]
		f10 := g10[k]
		f11 := g11[k]
		f12 := g12[k]
		f13 := g13[k]
		f14 := g14[k]
		f15 := g15[k]
		f16 := g16[k]
		f17 := g17[k]
		f18 := g18[k]

		rho := f0 + f1 + f2 + f3 + f4 + f5 + f6 +
			f7 + f8 + f9 + f10 + f11 + f12 + f13 +
			f14 + f15 + f16 + f17 + f18
		jx := f1 - f2 + f7 - f8 + f9 - f10 + f11 - f12 + f13 - f14
		jy := f3 - f4 + f7 - f8 - f9 + f10 + f15 - f16 + f17 - f18
		jz := f5 - f6 + f11 - f12 - f13 + f14 + f15 - f16 - f17 + f18
		invRho := 1.0 / rho
		ux, uy, uz := jx*invRho, jy*invRho, jz*invRho
		onem := 1 - 1.5*math.FMA(uz, uz, math.FMA(uy, uy, ux*ux))
		wr1, wr2 := w1*rho, w2*rho

		// Canonical FMA collide (see lattice.Equilibrium); each ±
		// direction pair shares the symmetric part s of its two
		// equilibria, and the relaxed population i lands in slice
		// Opp[i] (1↔2, 3↔4, 5↔6, 7↔8, 9↔10, 11↔12, 13↔14, 15↔16,
		// 17↔18), which is the AA scatter for both parities.
		g0[k] = math.FMA(nTau, f0-w0*rho*onem, f0)
		cu := ux
		h := 4.5 * cu
		s := math.FMA(h, cu, onem)
		c3 := 3 * cu
		g2[k] = math.FMA(nTau, f1-wr1*(s+c3), f1)
		g1[k] = math.FMA(nTau, f2-wr1*(s-c3), f2)
		cu = uy
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g4[k] = math.FMA(nTau, f3-wr1*(s+c3), f3)
		g3[k] = math.FMA(nTau, f4-wr1*(s-c3), f4)
		cu = uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g6[k] = math.FMA(nTau, f5-wr1*(s+c3), f5)
		g5[k] = math.FMA(nTau, f6-wr1*(s-c3), f6)
		cu = ux + uy
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g8[k] = math.FMA(nTau, f7-wr2*(s+c3), f7)
		g7[k] = math.FMA(nTau, f8-wr2*(s-c3), f8)
		cu = ux - uy
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g10[k] = math.FMA(nTau, f9-wr2*(s+c3), f9)
		g9[k] = math.FMA(nTau, f10-wr2*(s-c3), f10)
		cu = ux + uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g12[k] = math.FMA(nTau, f11-wr2*(s+c3), f11)
		g11[k] = math.FMA(nTau, f12-wr2*(s-c3), f12)
		cu = ux - uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g14[k] = math.FMA(nTau, f13-wr2*(s+c3), f13)
		g13[k] = math.FMA(nTau, f14-wr2*(s-c3), f14)
		cu = uy + uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g16[k] = math.FMA(nTau, f15-wr2*(s+c3), f15)
		g15[k] = math.FMA(nTau, f16-wr2*(s-c3), f16)
		cu = uy - uz
		h = 4.5 * cu
		s = math.FMA(h, cu, onem)
		c3 = 3 * cu
		g18[k] = math.FMA(nTau, f17-wr2*(s+c3), f17)
		g17[k] = math.FMA(nTau, f18-wr2*(s-c3), f18)
	}
}
