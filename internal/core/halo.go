package core

// Face identifies one of the six axis-aligned faces of the domain block.
type Face int

const (
	FaceXMin Face = iota
	FaceXMax
	FaceYMin
	FaceYMax
	FaceZMin
	FaceZMax
	numFaces
)

// Opposite returns the face across the block on the same axis — the halo
// side a neighbour unpacks this face into.
func (f Face) Opposite() Face { return f ^ 1 }

// String implements fmt.Stringer.
func (f Face) String() string {
	switch f {
	case FaceXMin:
		return "x-"
	case FaceXMax:
		return "x+"
	case FaceYMin:
		return "y-"
	case FaceYMax:
		return "y+"
	case FaceZMin:
		return "z-"
	case FaceZMax:
		return "z+"
	}
	return "?"
}

// Line is a full-extent straight run of allocated cells — a z-row at a
// fixed (x, y) or an x-row at a fixed (y, z) — the unit the halo and
// boundary layers stream over. Cell k of the line has flat index
// Idx + k*Stride.
type Line struct {
	Idx    int // flat index of the first cell
	Stride int // 1 along z, AZ along x
	Len    int // AZ or AX
	// axis is the running axis (0 or 2); edge[a] is −1 where the line sits
	// at allocated coordinate 0 of the fixed axis a, +1 at the last one.
	axis int
	edge [3]int
}

// Cell returns the flat index of the line's k-th cell.
func (ln Line) Cell(k int) int { return ln.Idx + k*ln.Stride }

func edgeOf(a, n int) int {
	switch a {
	case 0:
		return -1
	case n - 1:
		return 1
	}
	return 0
}

// ZLine returns the z-row at allocated coordinates (ax, ay).
func (l *Lattice) ZLine(ax, ay int) Line {
	return Line{Idx: (ay*l.AX + ax) * l.AZ, Stride: 1, Len: l.AZ, axis: 2,
		edge: [3]int{edgeOf(ax, l.AX), edgeOf(ay, l.AY), 0}}
}

func (l *Lattice) xLine(ay, az int) Line {
	return Line{Idx: ay*l.AX*l.AZ + az, Stride: l.AZ, Len: l.AX, axis: 0,
		edge: [3]int{0, edgeOf(ay, l.AY), edgeOf(az, l.AZ)}}
}

// FaceLines returns the number of lines that tile a one-cell-thick layer
// at face f: z-rows for the x and y faces, x-rows for the z faces. The
// layers cover the full allocated extent of the tangential axes so that
// diagonal neighbours are satisfied after the axes run in sequence.
func (l *Lattice) FaceLines(f Face) int {
	if f == FaceYMin || f == FaceYMax {
		return l.AX
	}
	return l.AY
}

// FaceLine returns line j of the layer at face f: layer 0 is the interior
// boundary layer (what gets sent, and what a boundary condition reads),
// layer 1 the halo layer (what gets received or imposed). Line j of
// either layer faces line j of the other across the boundary, and the
// lines in order enumerate the layer in PackFace's wire order.
func (l *Lattice) FaceLine(f Face, layer, j int) Line {
	switch f {
	case FaceXMin:
		return l.ZLine(1-layer, j)
	case FaceXMax:
		return l.ZLine(l.AX-2+layer, j)
	case FaceYMin:
		return l.ZLine(j, 1-layer)
	case FaceYMax:
		return l.ZLine(j, l.AY-2+layer)
	case FaceZMin:
		return l.xLine(j, 1-layer)
	}
	return l.xLine(j, l.AZ-2+layer)
}

// FaceCells returns the number of cells in one face layer (including the
// tangential halo extent), i.e. the element count of a packed face buffer
// divided by Q.
func (l *Lattice) FaceCells(f Face) int {
	return l.FaceLines(f) * l.FaceLine(f, 0, 0).Len
}

// lineBase locates logical population i of the line's cells under the
// current storage phase: cell k holds it at Src()[b+ln.Cell(k)] for
// lo ≤ k < hi and in its natural slot i*N+ln.Cell(k) otherwise. Double
// buffers and the even AA phase are natural throughout. At odd AA phase
// the base is the shifted one (PopBase) unless c_i points out of the
// allocation: across a fixed axis that parks the whole line in natural
// slots (the edge rows), along the running axis only the one end cell.
func (l *Lattice) lineBase(ln *Line, i int) (b, lo, hi int) {
	if l.aaOddPhase() {
		c := &l.Desc.C[i]
		if c[0]*ln.edge[0] <= 0 && c[1]*ln.edge[1] <= 0 && c[2]*ln.edge[2] <= 0 {
			lo, hi = 0, ln.Len
			if c[ln.axis] < 0 {
				lo = 1
			} else if c[ln.axis] > 0 {
				hi--
			}
			return l.Desc.Opp[i]*l.N + l.offs[i], lo, hi
		}
	}
	return i * l.N, 0, ln.Len
}

// GatherLine copies the Q logical populations of cells k0 ≤ k < k1 of the
// line out of the current buffer into buf, population-major with row pitch
// pitch ≥ k1−k0: population i of cell k at buf[i*pitch+k−k0]. Each
// population is one contiguous run, so z-rows move at memmove speed.
func (l *Lattice) GatherLine(ln Line, k0, k1 int, buf []float64, pitch int) {
	for i := 0; i < l.Desc.Q; i++ {
		l.gatherPop(&ln, i, k0, k1, buf[i*pitch:])
	}
}

// ScatterLine is the inverse of GatherLine: it writes the population-major
// block buf into the logical populations of cells k0 ≤ k < k1.
func (l *Lattice) ScatterLine(ln Line, k0, k1 int, buf []float64, pitch int) {
	for i := 0; i < l.Desc.Q; i++ {
		l.scatterPop(&ln, i, k0, k1, buf[i*pitch:])
	}
}

// LinePopulation copies logical population i of every cell of the line
// into out (length ≥ ln.Len), in line order.
func (l *Lattice) LinePopulation(ln Line, i int, out []float64) {
	l.gatherPop(&ln, i, 0, ln.Len, out)
}

// gatherPop copies logical population i of cells k0 ≤ k < k1 into out.
//
//lbm:hot traffic budget=16
func (l *Lattice) gatherPop(ln *Line, i, k0, k1 int, out []float64) {
	src := l.F[l.src]
	b, lo, hi := l.lineBase(ln, i)
	m0, m1 := max(k0, lo), min(k1, hi)
	if ln.Stride == 1 {
		copy(out[m0-k0:m1-k0], src[b+ln.Idx+m0:])
	} else {
		o, s, st := out[m0-k0:m1-k0], b+ln.Cell(m0), ln.Stride
		for k := range o {
			o[k] = src[s]
			s += st
		}
	}
	// The end cells that park in their natural slot.
	if k0 < m0 {
		out[0] = src[i*l.N+ln.Cell(k0)]
	}
	if m1 < k1 {
		out[m1-k0] = src[i*l.N+ln.Cell(m1)]
	}
}

// scatterPop writes in into logical population i of cells k0 ≤ k < k1.
//
//lbm:hot traffic budget=16
func (l *Lattice) scatterPop(ln *Line, i, k0, k1 int, in []float64) {
	src := l.F[l.src]
	b, lo, hi := l.lineBase(ln, i)
	m0, m1 := max(k0, lo), min(k1, hi)
	if ln.Stride == 1 {
		copy(src[b+ln.Idx+m0:b+ln.Idx+m1], in[m0-k0:m1-k0])
	} else {
		d, st := b+ln.Cell(m0), ln.Stride
		for _, v := range in[m0-k0 : m1-k0] {
			src[d] = v
			d += st
		}
	}
	if k0 < m0 {
		src[i*l.N+ln.Cell(k0)] = in[0]
	}
	if m1 < k1 {
		src[i*l.N+ln.Cell(m1)] = in[m1-k0]
	}
}

// CopyLine sets logical population i of every cell of dst to population
// perm[i] (i itself when perm is nil) of the facing cell of src, in the
// current buffer. Distinct (cell, population) pairs never share a slot,
// so copies between disjoint lines are order-safe in place.
func (l *Lattice) CopyLine(dst, src Line, perm []int) {
	for i := 0; i < l.Desc.Q; i++ {
		j := i
		if perm != nil {
			j = perm[i]
		}
		l.copyPop(&dst, i, l, &src, j, 0, dst.Len)
	}
}

// copyPop sets population i of cells k0 ≤ k < k1 of l's line dst to
// population j of the facing cells of sl's line src, in the current
// buffers (sl is l itself for a copy within one lattice).
//
//lbm:hot traffic budget=16
func (l *Lattice) copyPop(dst *Line, i int, sl *Lattice, src *Line, j, k0, k1 int) {
	df, sf := l.F[l.src], sl.F[sl.src]
	db, dlo, dhi := l.lineBase(dst, i)
	sb, slo, shi := sl.lineBase(src, j)
	m0, m1 := max(dlo, slo, k0), min(dhi, shi, k1)
	if dst.Stride == 1 && src.Stride == 1 {
		copy(df[db+dst.Idx+m0:db+dst.Idx+m1], sf[sb+src.Idx+m0:])
	} else {
		d, ds := db+dst.Cell(m0), dst.Stride
		s, ss := sb+src.Cell(m0), src.Stride
		for k := m0; k < m1; k++ {
			df[d] = sf[s]
			d, s = d+ds, s+ss
		}
	}
	// The end cells where either side parks in its natural slot: only the
	// line's first and last cells ever do.
	if k0 < m0 {
		df[l.slot(dst, i, k0)] = sf[sl.slot(src, j, k0)]
	}
	if m1 < k1 {
		df[l.slot(dst, i, k1-1)] = sf[sl.slot(src, j, k1-1)]
	}
}

// slot returns the index in Src() of logical population i of the line's
// k-th cell (PopIndex without the coordinate recovery).
func (l *Lattice) slot(ln *Line, i, k int) int {
	b, lo, hi := l.lineBase(ln, i)
	if k < lo || k >= hi {
		b = i * l.N
	}
	return b + ln.Cell(k)
}

// PeriodicAll copies the interior boundary layers of the current buffer
// into the opposite halo layers for all three axes, including the edge and
// corner cells (copied transitively by doing the axes in sequence over the
// full allocated extent). Halo cells also inherit the Fluid flag wherever
// the wrapped-around source cell is Fluid, so streaming pulls through the
// periodic image correctly.
func (l *Lattice) PeriodicAll() {
	l.PeriodicAxis(0)
	l.PeriodicAxis(1)
	l.PeriodicAxis(2)
}

// PeriodicAxis wraps the halo of one axis (0=x, 1=y, 2=z) periodically.
// The copy spans the entire allocated extent of the other two axes so that
// successive calls for different axes fill edges and corners correctly.
// The sources (interior boundary layers) are never destinations (halo
// layers), so the in-place copies are order-safe at either storage phase.
func (l *Lattice) PeriodicAxis(axis int) {
	l.PeriodicLines(axis, 0, l.FaceLines(Face(2*axis)))
}

// PeriodicLines is PeriodicAxis on lines j0 ≤ j < j1 of the axis's face
// layers (FaceLine numbering: allocated y on the x and z axes, allocated x
// on y). Each line pair touches only its own allocated y-plane on the x
// and z axes.
func (l *Lattice) PeriodicLines(axis, j0, j1 int) {
	lo := l.FaceLine(Face(2*axis), 0, 0)
	l.PeriodicRange(axis, j0, j1, 0, lo.Len)
}

// PeriodicRange is PeriodicLines on cells k0 ≤ k < k1 of each line
// (allocated z on the x and y axes, allocated x on z): the z wrap of one
// y-plane splits into x-ranges that can run as soon as the cells they
// read and write are final (psolve's rank step wraps the inner x-range
// from its inner sweep and the rest from its strips).
//
// Each iteration wraps one line pair, i.e. per cell pair 2 × (19 reads +
// 19 writes of float64, priced in copyPop) plus the flag bytes here. The
// two wraps of a population run back to back: on the z faces they share
// their cache lines. (Population-outer order, one slab at a time, measured
// no faster on the 48×192×96 grid, and slower on the x and z wraps.)
//
//lbm:hot traffic budget=616 assume q=19
func (l *Lattice) PeriodicRange(axis, j0, j1, k0, k1 int) {
	if k0 >= k1 {
		return
	}
	lo, hi := Face(2*axis), Face(2*axis+1)
	for j := j0; j < j1; j++ {
		loHalo, loIn := l.FaceLine(lo, 1, j), l.FaceLine(lo, 0, j)
		hiHalo, hiIn := l.FaceLine(hi, 1, j), l.FaceLine(hi, 0, j)
		for i := 0; i < l.Desc.Q; i++ {
			l.copyPop(&loHalo, i, l, &hiIn, i, k0, k1)
			l.copyPop(&hiHalo, i, l, &loIn, i, k0, k1)
		}
		for k := k0; k < k1; k++ {
			if f := l.Flags[hiIn.Cell(k)]; f != Ghost {
				l.Flags[loHalo.Cell(k)] = f
			}
			if f := l.Flags[loIn.Cell(k)]; f != Ghost {
				l.Flags[hiHalo.Cell(k)] = f
			}
		}
	}
}

// Crossing lists, ascending, the populations whose velocity leaves the
// block through face f (c_i·n_f > 0): the ones the neighbour beyond f
// streams in from its halo, and so the only ones a face carries — 3 of
// D2Q9's 9 on an x or y face (none on a z face), 5 of D3Q15's and
// D3Q19's, 9 of D3Q27's. A face's wire buffer holds
// len(Crossing(f))·FaceCells(f) words. The set is the descriptor's
// (lattice.Descriptor.Leaving); callers must not modify the slice.
func (l *Lattice) Crossing(f Face) []int { return l.Desc.Leaving(int(f)) }

// PackFace serialises the crossing populations (Crossing(f)) of the
// interior boundary layer at face f from the current buffer into buf,
// which must have length ≥ m*FaceCells(f) float64s, m = len(Crossing(f)).
// Line j of the layer is one block of m runs of the line's length: the
// r-th crossing population of the line's cell k at buf[(j*m+r)*Len+k].
// It returns the packed flags alongside, one per cell of the layer, so
// the receiver can mirror obstacle cells that touch the subdomain
// boundary. The wire format is the same at either storage phase, so
// pack/unpack pairs compose across ranks at different parities.
//
// Per cell it moves the 5 crossing populations of D3Q19 (80 B, priced in
// gatherPop) plus the flag bytes here.
//
//lbm:hot traffic budget=96
func (l *Lattice) PackFace(f Face, buf []float64, flags []CellType) {
	cross := l.Crossing(f)
	for j, n := 0, l.FaceLines(f); j < n; j++ {
		ln := l.FaceLine(f, 0, j)
		blk := buf[j*ln.Len*len(cross):]
		for r, i := range cross {
			l.gatherPop(&ln, i, 0, ln.Len, blk[r*ln.Len:])
		}
		if flags != nil {
			for k := 0; k < ln.Len; k++ {
				flags[j*ln.Len+k] = l.Flags[ln.Cell(k)]
			}
		}
	}
}

// UnpackFace writes a face packed by a neighbour's PackFace(f.Opposite())
// into the halo layer at face f of the current buffer: the populations
// whose velocity points from the halo into the block (c_i·n_f < 0, i.e.
// Crossing(f.Opposite())), the only ones the sweep reads there. Every
// other population of the halo keeps its value. Flags, if non-nil, update
// the halo cell classification (so walls spanning subdomain boundaries
// bounce correctly); Ghost flags in the packed data are preserved as
// Ghost. At odd AA phase populations whose shifted home leaves the
// allocation park in place and feed the next odd-parity pack or capture,
// never the kernel.
//
//lbm:hot traffic budget=96
func (l *Lattice) UnpackFace(f Face, buf []float64, flags []CellType) {
	cross := l.Crossing(f.Opposite())
	for j, n := 0, l.FaceLines(f); j < n; j++ {
		ln := l.FaceLine(f, 1, j)
		blk := buf[j*ln.Len*len(cross):]
		for r, i := range cross {
			l.scatterPop(&ln, i, 0, ln.Len, blk[r*ln.Len:])
		}
		if flags != nil {
			for k := 0; k < ln.Len; k++ {
				if fl := flags[j*ln.Len+k]; fl != Ghost {
					l.Flags[ln.Cell(k)] = fl
				}
			}
		}
	}
}

// CopyFace is PackFace(f) on l followed by UnpackFace(f.Opposite()) on
// dst, without the buffer: line by line, the crossing populations of l's
// interior boundary layer at f move straight into dst's halo layer at the
// opposite face, and with flags set the cells' flags follow (Ghost flags
// preserved, as UnpackFace does). The two lattices are neighbours across
// f, so their face layers have the same lines; they may differ in storage
// phase.
//
//lbm:hot traffic budget=96
func (l *Lattice) CopyFace(f Face, dst *Lattice, flags bool) {
	cross := l.Crossing(f)
	for j, n := 0, l.FaceLines(f); j < n; j++ {
		src, halo := l.FaceLine(f, 0, j), dst.FaceLine(f.Opposite(), 1, j)
		for _, i := range cross {
			dst.copyPop(&halo, i, l, &src, i, 0, halo.Len)
		}
		if flags {
			for k := 0; k < src.Len; k++ {
				if fl := l.Flags[src.Cell(k)]; fl != Ghost {
					dst.Flags[halo.Cell(k)] = fl
				}
			}
		}
	}
}
