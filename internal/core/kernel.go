package core

// StepFused advances the lattice one time step using the fused pull-scheme
// collide–stream kernel (§IV-A of the paper): a single loop over the
// domain gathers the post-collision populations of the previous step from
// the neighbouring cells (streaming), relaxes them towards equilibrium
// (collision) and stores the result — into the other A–B buffer, or in
// place on AA storage.
//
// Populations pulled from Wall/MovingWall neighbours are replaced by the
// half-way bounce-back reflection, with the moving-wall momentum correction
// where applicable.
func (l *Lattice) StepFused() {
	l.StepRegion(0, l.NX, 0, l.NY)
	l.CompleteStep()
}

// StepRegion applies the fused update to the sub-block x0 ≤ x < x1,
// y0 ≤ y < y1 (all z) WITHOUT completing the step. It enables the paper's
// on-the-fly halo exchange (§IV-C-1, Fig. 6): compute the inner region
// while communication is in flight, then the boundary strips, then
// CompleteStep. Regions must tile the interior exactly once before
// CompleteStep is called. AA cells never read another cell's writes
// within a step, so disjoint regions may also run concurrently (Pool).
//
// The unrolled D3Q19 row kernel runs where it applies (AA storage, no LES,
// no body force); everything else — and every mixed row inside it — is the
// one descriptor-generic sweep.
func (l *Lattice) StepRegion(x0, x1, y0, y1 int) { l.SweepRows(x0, x1, y0, y1, Wrap{}, nil) }

// SweepRows is StepRegion that reads across the axes w marks and calls a
// non-nil rowDone(y) once row y of the region has been swept for every
// x, in increasing y. The generic sweep runs a row at a time; no cell
// reads another's writes within a step, so the row order is the block
// order.
//
// On AA storage's even step, a row next to a wrapped axis reads the far
// side instead of that axis's halo (wrap.go), so the caller fills only
// the halo cells that are still read (PeriodicEdges); the odd step reads
// only each cell's own slots, and under a z wrap leaves in each row's z
// halo the slots the next even step reads there. The step leaves every
// interior cell's populations exactly where the step after a whole fill
// does, and reads the flags of the halo as that step would: a fill that
// copied them (a whole wrap) must have run before the first such sweep.
// A double-buffered lattice has no odd layout to read across; w must be
// empty there.
//
// The hook is where a sweep fills the next step's halo while the lines
// are still in cache (Pool.StepFaces, psolve's rank step): in AA storage
// allocated y-plane y (row y−1) of the view Ahead returns is final on the
// x-range whose every neighbour's rows y−2…y this and earlier sweeps of
// the step have covered, and a condition may then read and write that
// range through the view. The rows next to a wrapped y axis also reach
// the rows across it, so the two planes next to each y halo wait until
// every sweep of the step has run.
func (l *Lattice) SweepRows(x0, x1, y0, y1 int, w Wrap, rowDone func(y int)) {
	if w != (Wrap{}) && !l.aa {
		panic("core: SweepRows reads across a wrap on a double-buffered lattice")
	}
	if l.useFastPath() {
		l.stepAAD3Q19(x0, x1, y0, y1, w, rowDone)
		return
	}
	for y := y0; y < y1; y++ {
		l.stepGeneric(x0, x1, y, y+1, w)
		if rowDone != nil {
			rowDone(y)
		}
	}
}

// Ahead returns a view of an AA lattice one step ahead: it shares l's
// arrays, flags and wall velocities, and its storage phase is the next
// step's. Conditions applied through it during a sweep fill the halo the
// next step reads — slots the running sweep never touches, because in AA
// storage every slot belongs to exactly one (cell, population) at each
// parity.
func (l *Lattice) Ahead() Lattice {
	v := *l
	v.step++
	return v
}

// CompleteStep swaps the A–B buffers after a set of StepRegion calls that
// together covered the whole interior (for AA lattices there is nothing
// to swap — the step counter advances, flipping the layout phase).
func (l *Lattice) CompleteStep() {
	if !l.aa {
		l.src = 1 - l.src
	}
	l.step++
}

// CollideOnly performs the collision phase in place on the current buffer
// without streaming. Together with StreamOnly it forms the unfused
// two-pass update used as the baseline in the kernel-fusion ablation
// (Fig. 8); StepFused is exactly equivalent to StreamOnly followed by
// CollideOnly (both conventions keep post-collision values in the buffer).
//
// Per-cell traffic: 19 reads + 19 writes of the same buffer plus the
// flag byte — cheaper than the fused step only because the gather needs
// no neighbour flag checks.
//
//lbm:hot traffic budget=380 assume q=19
func (l *Lattice) CollideOnly() {
	q := l.Desc.Q
	n := l.N
	src := l.F[l.src]
	col := l.Collider()
	var fArr [MaxQ]float64
	f := fArr[:q]
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			rowBase := l.Idx(x, y, 0)
			for z := 0; z < l.NZ; z++ {
				idx := rowBase + z
				if l.Flags[idx] != Fluid {
					continue
				}
				for i := 0; i < q; i++ {
					f[i] = src[i*n+idx]
				}
				col.Relax(f, f)
				for i := 0; i < q; i++ {
					src[i*n+idx] = f[i]
				}
			}
		}
	}
}

// StreamOnly performs the streaming phase (pull, with bounce-back) from the
// current buffer into the other A–B buffer and swaps. CollideOnly must run
// afterwards to complete one unfused time step.
//
// Per-cell traffic: 19 neighbour pulls (priced in pull) + 19 pushes plus
// ~20 flag bytes, the same roofline class as the fused step — which is
// exactly why the two-pass baseline loses (Fig. 8): it pays this twice per
// time step.
//
//lbm:hot traffic budget=380 assume q=19
func (l *Lattice) StreamOnly() {
	q := l.Desc.Q
	n := l.N
	src := l.F[l.src]
	dst := l.Dst()
	var fArr [MaxQ]float64
	f := fArr[:q]
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			rowBase := l.Idx(x, y, 0)
			for z := 0; z < l.NZ; z++ {
				idx := rowBase + z
				if l.Flags[idx] != Fluid {
					continue
				}
				l.pull(f, src, idx, 0, nil)
				for i := 0; i < q; i++ {
					dst[i*n+idx] = f[i]
				}
			}
		}
	}
	l.src = 1 - l.src
	l.step++
}

// StepUnfused advances one time step with the separate stream and collide
// passes (the pre-fusion baseline of Fig. 8). It produces bit-identical
// results to StepFused.
func (l *Lattice) StepUnfused() {
	l.StreamOnly()
	l.CollideOnly()
}
