package core

import "math/bits"

// Reading across the wrap: the paper fuses streaming, collision and the
// halo into one trip through memory (§IV-A, the on-the-fly halo of
// Fig. 6(2)), so a periodic axis that is not split should cost no pass
// of its own. On AA storage only the even step touches other cells'
// slots — it gathers natural slot i of the upwind cell y−c_i and
// scatters into slot Opp[i] of the downwind cell y+c_i — while the odd
// step reads and writes the cell's own slots (aa.go). So an even sweep
// under a Wrap reads across each wrapped axis instead of reading its
// halo, and no step has to copy the periodic halo:
//
//   - x and y: a row whose upwind row (x−c_x, y−c_y) leaves the interior
//     across a wrapped axis bases that direction's slice on the row on
//     the far side. The row's scatter slice for Opp[i] is its gather
//     slice for i (aa_d3q19.go), so one redirected base serves both and
//     the row body does not change. Afterwards the row copies what it
//     scattered across the wrap back to the halo slots the odd layout
//     parks it in (restore), so every interior cell's populations stay
//     where PopIndex says (halo packs, snapshots, checkpoints and the
//     conditions read them there).
//   - z: a row's slices cannot be redirected per cell. Each direction
//     with c_z ≠ 0 has one end cell that gathers from the z halo of its
//     upwind row and parks one population there. The odd step, which
//     writes every cell's natural slots, also copies the ten slots those
//     end cells will gather from each row's far end into the row's z halo
//     (wrapEnds) — lines the odd row has just written. After the even
//     row, the slots its end cells parked in the halo are copied to the
//     far end (endsOut), where the odd step reads them; the halo keeps
//     its copy, which is where the odd layout parks it. (Copying the
//     gathered slots just before the even row instead touches lines the
//     row's streams reach only at its other end, and cost a fifth of the
//     even sweep on the 48×192×96 grid.)
//   - Where z does not wrap but the row moved across x or y, the end
//     cell's upwind cell lies in the z halo, which the z conditions and
//     the wraps fill in the set's order; the end cell reads that cell
//     where it is, copied into the moved slice before the row runs
//     (keepIn).
//
// Slot ownership makes this exact in any row order: the slots a row's
// end cells read and park across the wrap are natural slot i of the
// upwind cell whose own downwind neighbour along c_i lies beyond the
// wrap, and only that row reads or writes them during the step. Rows
// whose upwind row lies in the halo of an axis that does not wrap (an
// inlet's, an outlet's, another rank's) read it where it is, z ends
// included, as the conditions and exchanges left it; the wraps keep
// filling those few edge cells (PeriodicEdges).

// Wrap marks the axes (0 = x, 1 = y, 2 = z) an AA sweep reads across
// instead of reading their halo: periodic axes that are not split.
type Wrap [3]bool

// acrossRow is how one z-row of an AA sweep under a Wrap reaches the
// slots it gathers from and scatters to at the even step. Element k of
// src[b[i]:] is natural slot i of the cell row cell k pulls population i
// from, which is also the slot it scatters population Opp[i] into. moved
// marks the directions whose base moved across an x or y wrap, by
// shift[i]; up and down those whose upwind row is interior and whose z
// ends wrap, with c_z = +1 and −1, and keepUp and keepDn the moved ones
// whose z ends do not wrap. The sweep's fields (w, n, base and the c_z
// masks) are set once by newAcross and every row's by planRow.
type acrossRow struct {
	w      Wrap
	n      int       // N
	base   [MaxQ]int // i*N − offs[i]
	cUp    uint32    // directions with c_z = +1
	cDown  uint32    // and −1
	b      [MaxQ]int
	shift  [MaxQ]int
	moved  uint32
	up     uint32
	down   uint32
	keepUp uint32
	keepDn uint32
}

// newAcross starts the rows of a sweep under w.
func (l *Lattice) newAcross(w Wrap) acrossRow {
	r := acrossRow{w: w, n: l.N}
	for i := 0; i < l.Desc.Q; i++ {
		r.base[i] = i*l.N - l.offs[i]
		r.cUp |= bool32(l.Desc.C[i][2] > 0) << i
		r.cDown |= bool32(l.Desc.C[i][2] < 0) << i
	}
	return r
}

// reach says where coordinate v of an axis of n interior cells lies for
// a sweep that does or does not wrap the axis: shift moves a base by
// stride per cell to v's image across the wrap, and halo says v lies in
// a halo the sweep reads as it is.
func reach(v, n int, wrap bool, stride int) (shift int, halo bool) {
	switch {
	case v >= 0 && v < n:
		return 0, false
	case !wrap:
		return 0, true
	case v < 0:
		return n * stride, false
	}
	return -n * stride, false
}

// planRow fills r for interior row (x, y) of an even sweep.
func (l *Lattice) planRow(r *acrossRow, x, y int) {
	q := l.Desc.Q
	rowBase := l.Idx(x, y, 0)
	if x > 0 && x < l.NX-1 && y > 0 && y < l.NY-1 {
		// Every upwind row is interior and none moves.
		for i := 0; i < q; i++ {
			r.b[i] = r.base[i] + rowBase
		}
		r.moved, r.up, r.down, r.keepUp, r.keepDn = 0, 0, 0, 0, 0
		if r.w[2] {
			r.up, r.down = r.cUp, r.cDown
		}
		return
	}
	var sx, sy [3]int
	var hx, hy [3]bool
	for c := -1; c <= 1; c++ {
		sx[c+1], hx[c+1] = reach(x-c, l.NX, r.w[0], l.AZ)
		sy[c+1], hy[c+1] = reach(y-c, l.NY, r.w[1], l.AX*l.AZ)
	}
	var inner uint32
	r.moved = 0
	for i := 0; i < q; i++ {
		c := l.Desc.C[i]
		s := 0
		if !hx[c[0]+1] && !hy[c[1]+1] {
			s = sx[c[0]+1] + sy[c[1]+1]
			r.moved |= bool32(s != 0) << i
			inner |= 1 << i
		}
		r.shift[i] = s
		r.b[i] = r.base[i] + rowBase + s
	}
	r.up, r.down, r.keepUp, r.keepDn = 0, 0, r.moved&r.cUp, r.moved&r.cDown
	if r.w[2] {
		r.up, r.down, r.keepUp, r.keepDn = inner&r.cUp, inner&r.cDown, 0, 0
	}
}

func bool32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// wrapEnds copies, after the odd update of the row at rowBase (cell
// z = 0) in a sweep that wraps z, the natural slots the next even step's
// end cells gather across the z ends into the row's z halo: slot i of
// the last cell to z = −1 for the directions of up (c_z = +1), slot i of
// the first to z = NZ for those of down (c_z = −1). It is the z wrap of
// the even layout, cut to the ten D3Q19 slots a step reads there. A row
// passes only the directions whose source cell it updated: a wall keeps
// its slots, and its halo copy holds what the cell beside it parked
// there to bounce back at this very step.
//
// Per end cell: one population read and one written, in lines the row
// has just written.
//
//lbm:hot traffic budget=16
func (r *acrossRow) wrapEnds(src []float64, rowBase, nz int, up, down uint32) {
	for m := up; m != 0; m &= m - 1 {
		b := bits.TrailingZeros32(m)*r.n + rowBase
		src[b-1] = src[b+nz-1]
	}
	for m := down; m != 0; m &= m - 1 {
		b := bits.TrailingZeros32(m)*r.n + rowBase
		src[b+nz] = src[b]
	}
}

// keepIn copies into each end of a moved slice whose z ends do not wrap
// the slot of the z-halo cell it stands in for, from where that cell is.
//
// Per end cell: its direction's base and shift, one population read and
// one written.
//
//lbm:hot traffic budget=32
func (r *acrossRow) keepIn(src []float64, nz int) {
	for m := r.keepUp; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		b := r.b[i]
		src[b] = src[b-r.shift[i]]
	}
	for m := r.keepDn; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		b := r.b[i] + nz - 1
		src[b] = src[b-r.shift[i]]
	}
}

// endsOut copies each slot the row's end cells scattered into an upwind
// row's z halo to the row's far end, where the odd step reads it. A row
// with a wall at an end clears that end's directions first: the wall
// scattered nothing, and the cell at the far end bounces back off the
// wall's halo copy from its own slot there.
//
// Per end cell: its direction's base, one population read and one
// written.
//
//lbm:hot traffic budget=24
func (r *acrossRow) endsOut(src []float64, nz int) {
	for m := r.up; m != 0; m &= m - 1 {
		b := r.b[bits.TrailingZeros32(m)]
		src[b+nz] = src[b]
	}
	for m := r.down; m != 0; m &= m - 1 {
		b := r.b[bits.TrailingZeros32(m)]
		src[b-1] = src[b+nz-1]
	}
}

// restore copies each slice the row scattered across an x or y wrap to
// the halo slots the odd layout parks it in.
func (r *acrossRow) restore(src []float64, nz int) {
	for m := r.moved; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		b := r.b[i]
		copy(src[b-r.shift[i]:b-r.shift[i]+nz], src[b:b+nz])
	}
}

// EdgeCells marks, next to the faces of the axes a sweep does not read
// across, the cells an edge wrap fills (PeriodicEdges): Halo[f] those in
// face f's halo layer, Layer[f] those in its boundary layer.
type EdgeCells struct {
	Halo, Layer [6]bool
}

// AllEdges marks every cell next to a face of an axis w does not wrap:
// all that a sweep reading across w, a face condition or a halo exchange
// may read of a wrapped axis's halo. A sweep reads the halo cells
// directly (the upwind row of a face condition's or another rank's halo,
// z ends included); conditions and packs read the boundary-layer ones
// (an outlet's inner line runs into the wrapped axis's halo).
func AllEdges(w Wrap) EdgeCells {
	var e EdgeCells
	for f := range e.Halo {
		e.Halo[f], e.Layer[f] = !w[f/2], !w[f/2]
	}
	return e
}

// PeriodicEdges is PeriodicLines restricted to the cells of lines
// j0 ≤ j < j1 that e marks. Run in a fill's order in place of a whole
// wrap, it leaves those cells as the whole wrap would and the rest of
// the halo as it is: what a sweep that reads across the wrap needs. With
// every other axis wrapped there is nothing to fill. Adjacent marked
// lines and cells go to PeriodicRange together.
func (l *Lattice) PeriodicEdges(axis, j0, j1 int, e EdgeCells) {
	// A line of the axis's face layer runs along run at fixed coordinate
	// j of fixed (FaceLine's numbering).
	fixed, run := 1, 2
	switch axis {
	case 1:
		fixed = 0
	case 2:
		run = 0
	}
	alloc := [3]int{l.AX, l.AY, l.AZ}
	// marked reports whether e marks allocated coordinate v of axis a.
	marked := func(a, v int) bool {
		switch n := alloc[a]; v {
		case 0:
			return e.Halo[2*a]
		case 1:
			return e.Layer[2*a] || v == n-2 && e.Layer[2*a+1]
		case n - 2:
			return e.Layer[2*a+1]
		case n - 1:
			return e.Halo[2*a+1]
		}
		return false
	}
	// The runs of marked cells along a line: within its first two and its
	// last two cells.
	nr := alloc[run]
	var runs [2][2]int
	nruns := 0
	for k := 0; k < nr; k++ {
		if k == 2 {
			k = max(k, nr-2)
		}
		if !marked(run, k) {
			continue
		}
		if nruns > 0 && runs[nruns-1][1] == k {
			runs[nruns-1][1]++
		} else {
			runs[nruns] = [2]int{k, k + 1}
			nruns++
		}
	}
	for j := j0; j < j1; {
		whole := marked(fixed, j)
		end := j + 1
		for end < j1 && marked(fixed, end) == whole {
			end++
		}
		if whole {
			l.PeriodicRange(axis, j, end, 0, nr)
		} else {
			for _, r := range runs[:nruns] {
				l.PeriodicRange(axis, j, end, r[0], r[1])
			}
		}
		j = end
	}
}
