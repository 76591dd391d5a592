package core

import (
	"math"

	"sunwaylb/internal/lattice"
)

// MaxQ is the largest velocity set the kernels support (D3Q27). The hot
// kernels keep their per-cell scratch in fixed-size stack arrays of this
// length so the inner loops stay allocation-free (the //lbm:hot contract,
// enforced by lbmvet's hotalloc rule); NewLattice rejects descriptors
// that exceed it.
const MaxQ = 27

// Collider is the LBGK collision operator of one lattice: BGK relaxation
// towards the canonical-order equilibrium (lattice.EquilibriumAll), with
// the Smagorinsky LES relaxation time and the Guo body-force source term
// when the lattice has them switched on. It is the one definition of the
// collide order; every descriptor-generic sweep — the fused double-buffer
// and AA steps, the unfused collide pass, the swlb CPE kernel — gathers a
// cell and hands it to Relax, and the unrolled D3Q19 AA row
// (aaRowD3Q19Scalar and its AVX-512 twin) is held to it bit for bit.
//
// A Collider is a value: it hoists what a sweep would otherwise recompute
// per cell, holds no reference to the lattice's populations and is never
// written after construction, so goroutines may share one.
type Collider struct {
	d      *lattice.Descriptor
	omega  float64 // 1/τ
	tau0   float64 // τ, the Smagorinsky model's molecular relaxation time
	csmag2 float64 // C_s²
	force  [3]float64
	les    bool
	forced bool
}

// Collider returns the collision operator for the lattice's current
// descriptor, relaxation time, Smagorinsky constant and body force.
func (l *Lattice) Collider() Collider {
	return Collider{
		d:      l.Desc,
		omega:  1.0 / l.Tau,
		tau0:   l.Tau,
		csmag2: l.Smagorinsky * l.Smagorinsky,
		force:  l.Force,
		les:    l.Smagorinsky > 0,
		forced: l.Force != [3]float64{},
	}
}

// Relax collides one cell: f holds its Q pre-collision populations and the
// post-collision ones are written to out, which may be f itself (each
// out[i] depends on f only through f[i] and the cell's moments, which are
// taken first).
//
// With LES on, the relaxation time is the self-consistent Smagorinsky
// solution
//
//	τ_eff = ½ (τ₀ + sqrt(τ₀² + 18√2 C_s² |Π|/ρ)),
//
// where Π is the non-equilibrium momentum flux tensor Σ c c (f − f^eq).
// With a body force, the velocity entering the equilibrium is shifted by
// half the force and the Guo source term is added to every population.
//
// Traffic: the model's "cell" here is one direction of the dearest loop
// (the forced relaxation: f, feq, out and the descriptor's c_i, w_i). All
// of it is stack scratch and two cache-resident tables; the main-memory
// bytes of a lattice cell are priced where it is gathered and scattered.
//
//lbm:hot traffic budget=56
func (c *Collider) Relax(f, out []float64) {
	d := c.d
	var feqArr [MaxQ]float64
	feq := feqArr[:d.Q]
	f, out = f[:len(feq)], out[:len(feq)]

	rho, jx, jy, jz := d.Moments(f)
	invRho := 1.0 / rho
	ux, uy, uz := jx*invRho, jy*invRho, jz*invRho
	fx, fy, fz := c.force[0], c.force[1], c.force[2]
	if c.forced {
		half := 0.5 * invRho
		ux += half * fx
		uy += half * fy
		uz += half * fz
	}
	d.EquilibriumAll(feq, rho, ux, uy, uz)

	omega := c.omega
	if c.les {
		var pxx, pyy, pzz, pxy, pxz, pyz float64
		for i, fi := range f {
			fneq := fi - feq[i]
			ci := d.C[i]
			cx, cy, cz := float64(ci[0]), float64(ci[1]), float64(ci[2])
			pxx += fneq * cx * cx
			pyy += fneq * cy * cy
			pzz += fneq * cz * cz
			pxy += fneq * cx * cy
			pxz += fneq * cx * cz
			pyz += fneq * cy * cz
		}
		piNorm := math.Sqrt(pxx*pxx + pyy*pyy + pzz*pzz + 2*(pxy*pxy+pxz*pxz+pyz*pyz))
		t0 := c.tau0
		omega = 1.0 / (0.5 * (t0 + math.Sqrt(t0*t0+18*math.Sqrt2*c.csmag2*piNorm/rho)))
	}

	if !c.forced {
		for i, fi := range f {
			out[i] = math.FMA(-omega, fi-feq[i], fi)
		}
		return
	}
	fw := 1 - 0.5*omega
	for i, fi := range f {
		ci := d.C[i]
		cx, cy, cz := float64(ci[0]), float64(ci[1]), float64(ci[2])
		cu := cx*ux + cy*uy + cz*uz
		si := d.W[i] * (3*((cx-ux)*fx+(cy-uy)*fy+(cz-uz)*fz) +
			9*cu*(cx*fx+cy*fy+cz*fz))
		out[i] = math.FMA(-omega, fi-feq[i], fi) + fw*si
	}
}

// wallTerm is the momentum correction 6·w_i·(c_i·u_w) that half-way
// bounce-back off the MovingWall cell at index wall adds to the reflected
// population travelling in direction i.
func (l *Lattice) wallTerm(i, wall int) float64 {
	uw := l.WallVel[wall]
	c := l.Desc.C[i]
	cu := float64(c[0])*uw[0] + float64(c[1])*uw[1] + float64(c[2])*uw[2]
	return 6 * l.Desc.W[i] * cu
}

// pull gathers into f the Q populations streaming into cell idx from src
// in the natural layout (double buffer, AA even phase): population i
// comes from the upwind neighbour idx−c_i — or, for the directions moved
// marks, from its image across a wrap, shift[i] away (acrossRow) — or,
// when that neighbour is a Wall or MovingWall, is the cell's own opposite
// population reflected by half-way bounce-back (plus the moving-wall
// correction). The wall test reads the neighbour's own flag, halo or not:
// a wrap copies the flags across.
//
// Traffic: the model's "cell" is one direction — a neighbour flag byte
// and one population from main memory, plus the offset-table entry and
// the scratch slot the model cannot tell from memory (a moved
// direction's shift is read on the rows next to a wrap alone). Nineteen
// of them are the 171 B gather half of a fused cell update.
//
//lbm:hot traffic budget=25
func (l *Lattice) pull(f, src []float64, idx int, moved uint32, shift *[MaxQ]int) {
	d := l.Desc
	n := l.N
	for i := range f {
		from := idx - l.offs[i]
		switch l.Flags[from] {
		case Wall:
			f[i] = src[d.Opp[i]*n+idx]
		case MovingWall:
			f[i] = src[d.Opp[i]*n+idx] + l.wallTerm(i, from)
		default:
			j := i*n + from
			if moved>>i&1 != 0 {
				j += shift[i]
			}
			f[i] = src[j]
		}
	}
}

// stepGeneric is the descriptor-generic fused collide–stream sweep over
// the sub-block x0 ≤ x < x1, y0 ≤ y < y1 (all z), for whichever storage
// the lattice is in. Only where a cell's populations are read and written
// differs:
//
//   - double buffer: pull from the source buffer, write the destination
//     buffer in natural order;
//   - AA even phase: pull (the even layout is the natural one), then
//     scatter population i into slot Opp[i] of the downwind neighbour
//     idx+c_i — wall and halo cells included, which parks outbound
//     populations where the odd step and the halo exchange expect them —
//     reading across the axes w marks as the unrolled row does (wrap.go);
//   - AA odd phase: gather from the cell's own reversed-shifted slots
//     (a wall neighbour's reflection reads the wall cell's natural slot i,
//     exactly where this cell's even scatter parked it) and write back in
//     natural order, restoring the even layout; under a w that wraps z
//     each row then copies its z ends for the next even step.
//
// Per-cell traffic (D3Q19): 19 population reads + 19 writes of float64
// plus ~20 flag bytes. On AA storage both halves hit one array, which is
// what drops the step below the paper's two-buffer 380 B/cell (§III-B);
// the budget is that tighter figure.
//
//lbm:hot traffic budget=360 assume q=19
func (l *Lattice) stepGeneric(x0, x1, y0, y1 int, w Wrap) {
	d := l.Desc
	q := d.Q
	n := l.N
	src := l.F[l.src]
	dst := src
	if !l.aa {
		dst = l.Dst()
	}
	odd := l.aaOddPhase()
	shifted := l.aa && !odd
	col := l.Collider()

	// Per-goroutine scratch on the stack (q ≤ MaxQ by construction; no
	// heap allocation anywhere in the kernel). The row plan of a sweep
	// that reads no wrap has no end cells to copy and no slice moved.
	var fArr [MaxQ]float64
	f := fArr[:q]
	r := l.newAcross(w)

	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			rowBase := l.Idx(x, y, 0)
			if !odd {
				l.planRow(&r, x, y)
				r.keepIn(src, l.NZ)
			}
			for z := 0; z < l.NZ; z++ {
				idx := rowBase + z
				if l.Flags[idx] != Fluid {
					continue
				}
				if odd {
					for i := 0; i < q; i++ {
						from := idx - l.offs[i]
						switch l.Flags[from] {
						case Wall:
							f[i] = src[i*n+from]
						case MovingWall:
							f[i] = src[i*n+from] + l.wallTerm(i, from)
						default:
							f[i] = src[d.Opp[i]*n+idx]
						}
					}
				} else {
					l.pull(f, src, idx, r.moved, &r.shift)
				}
				col.Relax(f, f)
				if shifted {
					for i := 0; i < q; i++ {
						dst[r.b[d.Opp[i]]+z] = f[i]
					}
				} else {
					for i := 0; i < q; i++ {
						dst[i*n+idx] = f[i]
					}
				}
			}
			// The z-end copies move what the end cells wrote: none from
			// a wall (wrapEnds, endsOut).
			first, last := l.Flags[rowBase] == Fluid, l.Flags[rowBase+l.NZ-1] == Fluid
			switch {
			case shifted:
				if !first {
					r.up = 0
				}
				if !last {
					r.down = 0
				}
				r.endsOut(src, l.NZ)
				r.restore(src, l.NZ)
			case odd && w[2]:
				up, down := r.cUp, r.cDown
				if !last {
					up = 0
				}
				if !first {
					down = 0
				}
				r.wrapEnds(src, rowBase, l.NZ, up, down)
			}
		}
	}
}
