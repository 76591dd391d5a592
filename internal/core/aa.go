package core

// AA-pattern in-place streaming (Bailey et al.; miniLB): one distribution
// array instead of the A–B pair, with the storage layout alternating
// between two phases keyed off the step-count parity.
//
// Even phase (after an even number of completed steps) the array is in the
// natural layout — population i of cell y lives at F[0][i*N+idx(y)],
// exactly the Src() layout of the double-buffer scheme, so every consumer
// (macro moments, halo packing, checkpoints, boundary conditions) works
// unchanged at even parity.
//
// Odd phase (after an odd number of steps) population i of cell y lives in
// the reversed-shifted slot
//
//	F[0][Opp[i]*N + idx(y) + offs[i]]        (slot Opp[i] of cell y+c_i)
//
// whenever y+c_i is still inside the allocated extent, and in the cell's
// own natural slot i otherwise. The fallback is exact, not a compromise:
// slot i of cell y is unused by the shifted rule precisely when y+c_i
// leaves the allocation, so the combined map is a bijection on the whole
// q×N slot space and every logical population of every allocated cell has
// exactly one home at both parities. PopIndex implements the map per
// slot and lineBase (halo.go) per line of cells; phase-dependent code
// (halo wrap, face pack/unpack, boundary conditions, checkpoints, snapshot
// capture) goes through one of them and inherits correctness from the
// bijection.
//
// The even step gathers exactly like the double-buffer pull kernel
// and scatters each post-collision population i into slot Opp[i] of the
// downwind neighbour y+c_i (writes into wall and halo cells deliberately
// park outbound populations where the odd step and the halo exchange
// expect them). The odd step gathers from the cell's own slots and
// writes back in natural order, restoring the even layout (stepGeneric in
// collide.go, and the unrolled row drivers in aa_d3q19.go). Both steps read
// and write disjoint slot sets across cells (only the owning cell reads
// what it writes), so rows, regions and worker pools may process cells in
// any order and remain bit-identical to the serial kernel.

// AA reports whether the lattice uses single-array AA-pattern storage.
func (l *Lattice) AA() bool { return l.aa }

// KernelPath names the code path a step of this lattice dispatches to —
// storage scheme, row kernel, descriptor specialisation, e.g. "aa avx512
// d3q19" — so a run can say which kernel it used and a dispatch regression
// is not just a quiet slowdown.
func (l *Lattice) KernelPath() string {
	storage, row, desc := "db", "scalar", "generic"
	if l.aa {
		storage = "aa"
	}
	if l.useFastPath() {
		desc = "d3q19"
		if useAVX512 && l.NZ >= 8 {
			row = "avx512"
		}
	}
	return storage + " " + row + " " + desc
}

// GenericRows counts the interior z-rows a step under the current flags
// hands to the generic sweep: the mixed rows on the D3Q19 fast path (the
// sweep's own classification), every row off it. One read of the flags.
func (l *Lattice) GenericRows() int {
	if !l.useFastPath() {
		return l.NX * l.NY
	}
	n := 0
	l.forRows(0, l.NX, 0, l.NY, func(_, _ int, mixed bool) {
		if mixed {
			n++
		}
	}, nil)
	return n
}

// aaOddPhase reports whether the storage is currently in the odd
// (reversed-shifted) layout.
func (l *Lattice) aaOddPhase() bool { return l.aa && l.step&1 == 1 }

// EnableAA switches the lattice to single-array AA-pattern storage,
// releasing the second buffer. The current state is preserved: at an even
// step count the source buffer already is the even-phase layout; at an odd
// step count the populations are permuted into the odd-phase layout so a
// checkpointed odd-parity state can resume in place. Calling it again is a
// no-op. AA lattices advance through StepFused / StepRegion+CompleteStep /
// Pool exactly like double-buffered ones, but
// SwapBuffers (an out-of-place-update escape hatch) panics.
func (l *Lattice) EnableAA() {
	if l.aa {
		return
	}
	cur := l.F[l.src]
	if l.step&1 == 1 {
		tmp := l.F[1-l.src]
		if tmp == nil {
			tmp = Alloc[float64](len(cur), len(cur))
		}
		l.aa = true // PopIndex must use the odd-phase map below
		q := l.Desc.Q
		for idx := 0; idx < l.N; idx++ {
			for i := 0; i < q; i++ {
				tmp[l.PopIndex(i, idx)] = cur[i*l.N+idx]
			}
		}
		l.F[0] = tmp
	} else {
		l.aa = true
		l.F[0] = cur
	}
	l.F[1] = nil
	l.src = 0
}

// PopIndex returns the flat index in Src() holding logical population i of
// the allocated cell idx under the current storage phase. For non-AA
// lattices and at even AA parity this is the natural i*N+idx; at odd AA
// parity it applies the reversed-shifted map with the natural-slot
// fallback for populations whose shifted home would leave the allocation
// (possible only for halo cells). Valid for every allocated cell,
// including halo and wall cells.
func (l *Lattice) PopIndex(i, idx int) int {
	if !l.aaOddPhase() {
		return i*l.N + idx
	}
	c := l.Desc.C[i]
	x, y, z := l.Coords(idx)
	x, y, z = x+c[0], y+c[1], z+c[2]
	if x >= -1 && x <= l.NX && y >= -1 && y <= l.NY && z >= -1 && z <= l.NZ {
		return l.Desc.Opp[i]*l.N + idx + l.offs[i]
	}
	return i*l.N + idx
}

// PopBase returns the base offset b such that Src()[b+idx] is logical
// population i of cell idx, valid for interior cells only (an interior
// cell's shifted slot never leaves the allocation, so the base is uniform
// across the interior). Hot interior loops hoist the Q bases once instead
// of calling PopIndex per cell.
func (l *Lattice) PopBase(i int) int {
	if l.aaOddPhase() {
		return l.Desc.Opp[i]*l.N + l.offs[i]
	}
	return i * l.N
}
