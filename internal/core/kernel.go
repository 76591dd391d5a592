package core

import "math"

// MaxQ is the largest velocity set the kernels support (D3Q27). The hot
// kernels keep their per-cell scratch in fixed-size stack arrays of this
// length so the inner loops stay allocation-free (the //lbm:hot contract,
// enforced by lbmvet's hotalloc rule); NewLattice rejects descriptors
// that exceed it.
const MaxQ = 27

// StepFused advances the lattice one time step using the fused pull-scheme
// collide–stream kernel (§IV-A of the paper): a single loop over the
// domain gathers the post-collision populations of the previous step from
// the neighbouring cells (streaming), relaxes them towards equilibrium
// (collision) and stores the result into the other A–B buffer.
//
// Populations pulled from Wall/MovingWall neighbours are replaced by the
// half-way bounce-back reflection, with the moving-wall momentum correction
// where applicable.
func (l *Lattice) StepFused() {
	if l.aa {
		l.stepAAYRange(0, l.NY)
		l.step++
		return
	}
	l.stepRegion(0, l.NX, 0, l.NY)
	l.src = 1 - l.src
	l.step++
}

// StepRegion applies the fused update to the sub-block x0 ≤ x < x1,
// y0 ≤ y < y1 (all z), writing into the destination buffer WITHOUT
// swapping. It enables the paper's on-the-fly halo exchange (§IV-C-1,
// Fig. 6): compute the inner region while communication is in flight,
// then the boundary strips, then CompleteStep. Regions must tile the
// interior exactly once before CompleteStep is called.
func (l *Lattice) StepRegion(x0, x1, y0, y1 int) {
	if l.aa {
		l.stepAARegionZ(x0, x1, y0, y1, 0, l.NZ)
		return
	}
	l.stepRegion(x0, x1, y0, y1)
}

// CompleteStep swaps the A–B buffers after a set of StepRegion calls that
// together covered the whole interior (for AA lattices there is nothing
// to swap — the step counter advances, flipping the layout phase).
func (l *Lattice) CompleteStep() {
	if l.aa {
		l.step++
		return
	}
	l.src = 1 - l.src
	l.step++
}

// stepRegion dispatches to the unrolled D3Q19 kernel when it applies
// (bit-identical, faster) and to the generic kernel otherwise.
func (l *Lattice) stepRegion(x0, x1, y0, y1 int) {
	if l.useFastPath() {
		l.stepRegionD3Q19(x0, x1, y0, y1)
		return
	}
	l.stepRegionGeneric(x0, x1, y0, y1)
}

// stepRegionGeneric is the descriptor-generic fused pull collide–stream
// kernel over an x/y sub-range.
//
// Per-cell traffic (bulk path, D3Q19): 19 population pulls + 19 pushes
// of float64 plus ~20 flag bytes — within the paper's §III-B ~380 B/cell
// roofline budget for the fused step.
//
//lbm:hot traffic budget=380 assume q=19
func (l *Lattice) stepRegionGeneric(x0, x1, y0, y1 int) {
	d := l.Desc
	q := d.Q
	n := l.N
	src := l.F[l.src]
	dst := l.Dst()
	invTau := 1.0 / l.Tau
	les := l.Smagorinsky > 0
	fx, fy, fz := l.Force[0], l.Force[1], l.Force[2]
	forced := fx != 0 || fy != 0 || fz != 0

	// Per-goroutine scratch on the stack (q ≤ MaxQ by construction; no
	// heap allocation anywhere in the kernel).
	var fArr, feqArr [MaxQ]float64
	f, feq := fArr[:q], feqArr[:q]

	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			rowBase := l.Idx(x, y, 0)
			for z := 0; z < l.NZ; z++ {
				idx := rowBase + z
				if l.Flags[idx] != Fluid {
					continue
				}
				// Gather (pull streaming) with bounce-back.
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
					// Guo forcing: the velocity entering the
					// equilibrium is shifted by half the force.
					half := 0.5 * invRho
					ux += half * fx
					uy += half * fy
					uz += half * fz
				}
				// Equilibrium.
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
				// Relax and store (collision).
				if forced {
					fw := 1 - 0.5*omega
					for i := 0; i < q; i++ {
						c := d.C[i]
						cx, cy, cz := float64(c[0]), float64(c[1]), float64(c[2])
						cu := cx*ux + cy*uy + cz*uz
						si := d.W[i] * (3*((cx-ux)*fx+(cy-uy)*fy+(cz-uz)*fz) +
							9*cu*(cx*fx+cy*fy+cz*fz))
						dst[i*n+idx] = math.FMA(-omega, f[i]-feq[i], f[i]) + fw*si
					}
				} else {
					for i := 0; i < q; i++ {
						dst[i*n+idx] = math.FMA(-omega, f[i]-feq[i], f[i])
					}
				}
			}
		}
	}
}

// smagorinskyTau returns the effective relaxation time of the Smagorinsky
// LES model: the self-consistent solution of
//
//	τ_eff = ½ (τ₀ + sqrt(τ₀² + 18√2 C² |Π|/ρ)),
//
// where Π is the non-equilibrium momentum flux tensor Σ c c (f − f^eq).
//
// O(Q) over stack scratch only — no per-cell main-memory traffic of its
// own (the caller's gather already paid for f/feq).
//
//lbm:hot traffic budget=0 assume d.Q=19
func (l *Lattice) smagorinskyTau(f, feq []float64, rho float64) float64 {
	d := l.Desc
	var pxx, pyy, pzz, pxy, pxz, pyz float64
	for i := 0; i < d.Q; i++ {
		fneq := f[i] - feq[i]
		c := d.C[i]
		cx, cy, cz := float64(c[0]), float64(c[1]), float64(c[2])
		pxx += fneq * cx * cx
		pyy += fneq * cy * cy
		pzz += fneq * cz * cz
		pxy += fneq * cx * cy
		pxz += fneq * cx * cz
		pyz += fneq * cy * cz
	}
	piNorm := math.Sqrt(pxx*pxx + pyy*pyy + pzz*pzz + 2*(pxy*pxy+pxz*pxz+pyz*pyz))
	c2 := l.Smagorinsky * l.Smagorinsky
	t0 := l.Tau
	return 0.5 * (t0 + math.Sqrt(t0*t0+18*math.Sqrt2*c2*piNorm/rho))
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
	d := l.Desc
	q := d.Q
	n := l.N
	src := l.F[l.src]
	invTau := 1.0 / l.Tau
	les := l.Smagorinsky > 0
	fx, fy, fz := l.Force[0], l.Force[1], l.Force[2]
	forced := fx != 0 || fy != 0 || fz != 0
	var fArr, feqArr [MaxQ]float64
	f, feq := fArr[:q], feqArr[:q]
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
						src[i*n+idx] = math.FMA(-omega, f[i]-feq[i], f[i]) + fw*si
					}
				} else {
					for i := 0; i < q; i++ {
						src[i*n+idx] = math.FMA(-omega, f[i]-feq[i], f[i])
					}
				}
			}
		}
	}
}

// StreamOnly performs the streaming phase (pull, with bounce-back) from the
// current buffer into the other A–B buffer and swaps. CollideOnly must run
// afterwards to complete one unfused time step.
//
// Per-cell traffic: 19 neighbour pulls + 19 pushes plus ~20 flag bytes,
// the same roofline class as the fused step — which is exactly why the
// two-pass baseline loses (Fig. 8): it pays this twice per time step.
//
//lbm:hot traffic budget=380 assume q=19
func (l *Lattice) StreamOnly() {
	d := l.Desc
	q := d.Q
	n := l.N
	src := l.F[l.src]
	dst := l.Dst()
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			rowBase := l.Idx(x, y, 0)
			for z := 0; z < l.NZ; z++ {
				idx := rowBase + z
				if l.Flags[idx] != Fluid {
					continue
				}
				for i := 0; i < q; i++ {
					from := idx - l.offs[i]
					switch l.Flags[from] {
					case Wall:
						dst[i*n+idx] = src[d.Opp[i]*n+idx]
					case MovingWall:
						uw := l.WallVel[from]
						c := d.C[i]
						cu := float64(c[0])*uw[0] + float64(c[1])*uw[1] + float64(c[2])*uw[2]
						dst[i*n+idx] = src[d.Opp[i]*n+idx] + 6*d.W[i]*cu
					default:
						dst[i*n+idx] = src[i*n+from]
					}
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
