package core

import "math"

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
// The even-step kernel gathers exactly like the double-buffer pull kernel
// and scatters each post-collision population i into slot Opp[i] of the
// downwind neighbour y+c_i (writes into wall and halo cells deliberately
// park outbound populations where the odd step and the halo exchange
// expect them). The odd-step kernel gathers from the cell's own slots and
// writes back in natural order, restoring the even layout. Both steps read
// and write disjoint slot sets across cells (only the owning cell reads
// what it writes), so rows, tiles and worker pools may process cells in
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
		if l.aa && useAVX512 && l.NZ >= 8 {
			row = "avx512"
		}
	}
	return storage + " " + row + " " + desc
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
			tmp = make([]float64, len(cur))
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

// SetAATiles sets the cache-blocking tile extents of the AA stepper: the
// y and z loops are processed in ty×tz blocks so a tile's populations stay
// resident across the gather and scatter of neighbouring rows. Values ≤ 0
// (the default) disable blocking along that axis. Cells never interact
// within a step, so any tiling is bit-identical to the unblocked sweep.
func (l *Lattice) SetAATiles(ty, tz int) { l.aaTileY, l.aaTileZ = ty, tz }

// AATiles returns the configured tile extents (0 meaning unblocked).
func (l *Lattice) AATiles() (ty, tz int) { return l.aaTileY, l.aaTileZ }

// stepAAYRange applies the current-parity AA kernel to interior rows
// y0 ≤ y < y1, tiled per SetAATiles. It does not advance the step counter;
// it is the unit of work for the serial and pool drivers.
func (l *Lattice) stepAAYRange(y0, y1 int) {
	ty, tz := l.aaTileY, l.aaTileZ
	if ty <= 0 || ty > y1-y0 {
		ty = y1 - y0
	}
	if tz <= 0 || tz > l.NZ {
		tz = l.NZ
	}
	for yt := y0; yt < y1; yt += ty {
		ye := yt + ty
		if ye > y1 {
			ye = y1
		}
		for zt := 0; zt < l.NZ; zt += tz {
			ze := zt + tz
			if ze > l.NZ {
				ze = l.NZ
			}
			l.stepAARegionZ(0, l.NX, yt, ye, zt, ze)
		}
	}
}

// stepAARegionZ dispatches one sub-block to the unrolled D3Q19 AA kernel
// of the current parity when the fast path applies, and to the generic
// kernel otherwise.
func (l *Lattice) stepAARegionZ(x0, x1, y0, y1, z0, z1 int) {
	even := l.step&1 == 0
	if l.useFastPath() {
		if even {
			l.stepAAEvenD3Q19(x0, x1, y0, y1, z0, z1)
		} else {
			l.stepAAOddD3Q19(x0, x1, y0, y1, z0, z1)
		}
		return
	}
	if even {
		l.stepAAEvenGeneric(x0, x1, y0, y1, z0, z1)
	} else {
		l.stepAAOddGeneric(x0, x1, y0, y1, z0, z1)
	}
}

// stepAAEvenGeneric is the descriptor-generic even-phase AA kernel over an
// x/y/z sub-block: gather exactly as the double-buffer pull kernel (the
// even layout is the natural one), collide with the same operation order,
// then scatter population i into slot Opp[i] of the downwind neighbour.
//
// Per-cell traffic: 19 pulls + 19 pushes of float64 into a single array
// plus ~20 flag bytes; the single array is what drops the fused step
// below the paper's two-buffer 380 B/cell budget, since the scatter hits
// lines the neighbouring gathers already own instead of a second buffer.
//
//lbm:hot traffic budget=360 assume q=19
func (l *Lattice) stepAAEvenGeneric(x0, x1, y0, y1, z0, z1 int) {
	d := l.Desc
	q := d.Q
	n := l.N
	src := l.F[l.src]
	invTau := 1.0 / l.Tau
	les := l.Smagorinsky > 0
	fx, fy, fz := l.Force[0], l.Force[1], l.Force[2]
	forced := fx != 0 || fy != 0 || fz != 0

	var fArr, feqArr, outArr [MaxQ]float64
	f, feq, out := fArr[:q], feqArr[:q], outArr[:q]

	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			rowBase := l.Idx(x, y, 0)
			for z := z0; z < z1; z++ {
				idx := rowBase + z
				if l.Flags[idx] != Fluid {
					continue
				}
				// Gather (pull streaming) with bounce-back — identical
				// to the double-buffer kernel at even parity.
				for i := 0; i < q; i++ {
					from := idx - l.offs[i]
					switch l.Flags[from] {
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
				// Moments.
				var rho, jx, jy, jz float64
				for i := 0; i < q; i++ {
					fi := f[i]
					rho += fi
					c := d.C[i]
					jx += fi * float64(c[0])
					jy += fi * float64(c[1])
					jz += fi * float64(c[2])
				}
				invRho := 1.0 / rho
				ux, uy, uz := jx*invRho, jy*invRho, jz*invRho
				if forced {
					half := 0.5 * invRho
					ux += half * fx
					uy += half * fy
					uz += half * fz
				}
				// Canonical FMA evaluation order (lattice.Equilibrium).
				onem := 1 - 1.5*math.FMA(uz, uz, math.FMA(uy, uy, ux*ux))
				for i := 0; i < q; i++ {
					c := d.C[i]
					cu := float64(c[0])*ux + float64(c[1])*uy + float64(c[2])*uz
					h := 4.5 * cu
					feq[i] = d.W[i] * rho * (math.FMA(h, cu, onem) + 3*cu)
				}
				omega := invTau
				if les {
					omega = 1.0 / l.smagorinskyTau(f, feq, rho)
				}
				if forced {
					fw := 1 - 0.5*omega
					for i := 0; i < q; i++ {
						c := d.C[i]
						cx, cy, cz := float64(c[0]), float64(c[1]), float64(c[2])
						cu := cx*ux + cy*uy + cz*uz
						si := d.W[i] * (3*((cx-ux)*fx+(cy-uy)*fy+(cz-uz)*fz) +
							9*cu*(cx*fx+cy*fy+cz*fz))
						out[i] = math.FMA(-omega, f[i]-feq[i], f[i]) + fw*si
					}
				} else {
					for i := 0; i < q; i++ {
						out[i] = math.FMA(-omega, f[i]-feq[i], f[i])
					}
				}
				// Reversed-shifted scatter: population i parks in slot
				// Opp[i] of cell idx+c_i (wall and halo cells included).
				for i := 0; i < q; i++ {
					src[d.Opp[i]*n+idx+l.offs[i]] = out[i]
				}
			}
		}
	}
}

// stepAAOddGeneric is the descriptor-generic odd-phase AA kernel: gather
// each population from the cell's own reversed-shifted slots (where the
// even step parked the upwind neighbours' outbound populations), collide,
// and write back in natural order, restoring the even layout. A wall
// neighbour's reflection reads the wall cell's natural slot i — exactly
// where the even scatter of this same cell parked the outbound population.
//
//lbm:hot traffic budget=360 assume q=19
func (l *Lattice) stepAAOddGeneric(x0, x1, y0, y1, z0, z1 int) {
	d := l.Desc
	q := d.Q
	n := l.N
	src := l.F[l.src]
	invTau := 1.0 / l.Tau
	les := l.Smagorinsky > 0
	fx, fy, fz := l.Force[0], l.Force[1], l.Force[2]
	forced := fx != 0 || fy != 0 || fz != 0

	var fArr, feqArr, outArr [MaxQ]float64
	f, feq, out := fArr[:q], feqArr[:q], outArr[:q]

	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			rowBase := l.Idx(x, y, 0)
			for z := z0; z < z1; z++ {
				idx := rowBase + z
				if l.Flags[idx] != Fluid {
					continue
				}
				for i := 0; i < q; i++ {
					from := idx - l.offs[i]
					switch l.Flags[from] {
					case Wall:
						f[i] = src[i*n+from]
					case MovingWall:
						uw := l.WallVel[from]
						c := d.C[i]
						cu := float64(c[0])*uw[0] + float64(c[1])*uw[1] + float64(c[2])*uw[2]
						f[i] = src[i*n+from] + 6*d.W[i]*cu
					default:
						f[i] = src[d.Opp[i]*n+idx]
					}
				}
				var rho, jx, jy, jz float64
				for i := 0; i < q; i++ {
					fi := f[i]
					rho += fi
					c := d.C[i]
					jx += fi * float64(c[0])
					jy += fi * float64(c[1])
					jz += fi * float64(c[2])
				}
				invRho := 1.0 / rho
				ux, uy, uz := jx*invRho, jy*invRho, jz*invRho
				if forced {
					half := 0.5 * invRho
					ux += half * fx
					uy += half * fy
					uz += half * fz
				}
				// Canonical FMA evaluation order (lattice.Equilibrium).
				onem := 1 - 1.5*math.FMA(uz, uz, math.FMA(uy, uy, ux*ux))
				for i := 0; i < q; i++ {
					c := d.C[i]
					cu := float64(c[0])*ux + float64(c[1])*uy + float64(c[2])*uz
					h := 4.5 * cu
					feq[i] = d.W[i] * rho * (math.FMA(h, cu, onem) + 3*cu)
				}
				omega := invTau
				if les {
					omega = 1.0 / l.smagorinskyTau(f, feq, rho)
				}
				if forced {
					fw := 1 - 0.5*omega
					for i := 0; i < q; i++ {
						c := d.C[i]
						cx, cy, cz := float64(c[0]), float64(c[1]), float64(c[2])
						cu := cx*ux + cy*uy + cz*uz
						si := d.W[i] * (3*((cx-ux)*fx+(cy-uy)*fy+(cz-uz)*fz) +
							9*cu*(cx*fx+cy*fy+cz*fz))
						out[i] = math.FMA(-omega, f[i]-feq[i], f[i]) + fw*si
					}
				} else {
					for i := 0; i < q; i++ {
						out[i] = math.FMA(-omega, f[i]-feq[i], f[i])
					}
				}
				// Natural write-back: the even layout is restored.
				for i := 0; i < q; i++ {
					src[i*n+idx] = out[i]
				}
			}
		}
	}
}
