package core

import (
	"fmt"
	"math"

	"sunwaylb/internal/lattice"
)

// WallsFunc reports whether the global cell (gx, gy, gz) is a solid
// no-slip wall.
type WallsFunc = func(gx, gy, gz int) bool

// InitFunc yields the initial macroscopic state of the global cell
// (gx, gy, gz).
type InitFunc = func(gx, gy, gz int) (rho, ux, uy, uz float64)

// Box is the block of cells [X0, X0+NX) × [Y0, Y0+NY) × [Z0, Z0+NZ): a
// lattice's place in a global domain, or the part of a lattice a macro
// pass writes.
type Box struct {
	X0, Y0, Z0 int
	NX, NY, NZ int
}

// BuildLattice allocates the lattice of block b of a global domain — b.NX×
// b.NY×b.NZ interior cells whose cell (0, 0, 0) is the global cell (b.X0,
// b.Y0, b.Z0) — and writes every allocated cell once. Halo cells are
// Ghost; interior cells are Wall where walls says so (nil: nowhere) and
// Fluid otherwise. Fluid cells hold the equilibrium of init's state (nil:
// ρ=1, u=0); halo and wall cells hold the rest equilibrium.
//
// The result is bitwise the per-cell definition: the rest equilibrium in
// every slot, SetWall where walls holds, then SetCell of init's state on
// every fluid cell. It is built in one pass per z-row: the row's flags,
// then its populations population-outer, each a run of AZ contiguous
// slots written once. Consecutive cells of a row with bitwise equal
// states share one equilibrium, so a uniform row is Q plain fills.
func BuildLattice(desc *lattice.Descriptor, b Box, tau float64, walls WallsFunc, init InitFunc) (*Lattice, error) {
	nx, ny, nz := b.NX, b.NY, b.NZ
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("core: invalid dimensions %d×%d×%d", nx, ny, nz)
	}
	if tau <= 0.5 {
		return nil, fmt.Errorf("core: relaxation time %v must exceed 0.5 for positive viscosity", tau)
	}
	if desc.Q > MaxQ {
		return nil, fmt.Errorf("core: descriptor %s has %d velocities, more than the supported maximum %d", desc.Name, desc.Q, MaxQ)
	}
	ax, ay, az := nx+2, ny+2, nz+2
	n := ax * ay * az
	l := &Lattice{
		Desc: desc,
		NX:   nx, NY: ny, NZ: nz,
		AX: ax, AY: ay, AZ: az,
		N:       n,
		Flags:   make([]CellType, n),
		WallVel: make(map[int][3]float64),
		Tau:     tau,
	}
	l.F[0] = makeFloats(desc.Q * n)
	l.offs = make([]int, desc.Q)
	for q := 0; q < desc.Q; q++ {
		c := desc.C[q]
		l.offs[q] = c[1]*ax*az + c[0]*az + c[2]
	}
	l.build(b, walls, init)
	return l, nil
}

// Blank returns a double-buffer lattice of l's descriptor, shape and
// relaxation time holding a copy of l's flags, halo included, sharing its
// WallVel map, with both population arrays zero. It is for models that time
// a step by the cells its flags classify, never by the values it computes
// (swlb.Engine.Price): a step of it computes NaN.
func (l *Lattice) Blank() *Lattice {
	b := &Lattice{
		Desc: l.Desc,
		NX:   l.NX, NY: l.NY, NZ: l.NZ,
		AX: l.AX, AY: l.AY, AZ: l.AZ,
		N:       l.N,
		Flags:   append([]CellType(nil), l.Flags...),
		WallVel: l.WallVel,
		Tau:     l.Tau,
		offs:    l.offs,
	}
	b.F[0] = makeFloats(len(l.F[0]))
	b.F[1] = makeFloats(len(l.F[0]))
	return b
}

// eqRun is a run of a z-row's cells that share one equilibrium: those
// from the previous run's end up to end.
type eqRun struct {
	end int
	eq  *[MaxQ]float64
}

// build writes the flags and populations of every z-row; see BuildLattice.
func (l *Lattice) build(b Box, walls WallsFunc, init InitFunc) {
	q, az, f := l.Desc.Q, l.AZ, l.F[0]
	var rest [MaxQ]float64
	l.Desc.EquilibriumAll(rest[:q], 1, 0, 0, 0)
	eqs := make([][MaxQ]float64, az) // eqs[k]: the equilibrium of a fluid run starting at k
	runs := make([]eqRun, 0, az)
	for y := -1; y <= l.NY; y++ {
		for x := -1; x <= l.NX; x++ {
			base := l.Idx(x, y, -1)
			flags := l.Flags[base : base+az]
			inside := x >= 0 && x < l.NX && y >= 0 && y < l.NY
			flags[0], flags[az-1] = Ghost, Ghost
			for k := 1; k < az-1; k++ {
				switch {
				case !inside:
					flags[k] = Ghost
				case walls != nil && walls(b.X0+x, b.Y0+y, b.Z0+k-1):
					flags[k] = Wall
				default:
					flags[k] = Fluid
				}
			}
			runs = append(runs[:0], eqRun{az, &rest})
			if inside && init != nil {
				runs = runs[:0]
				var last [4]uint64 // the bits of the newest fluid run's state
				for k, fl := range flags {
					n := len(runs) - 1 // ≥ 0 past the z halo cell k = 0
					if fl != Fluid {
						if n >= 0 && runs[n].eq == &rest {
							runs[n].end = k + 1
						} else {
							runs = append(runs, eqRun{k + 1, &rest})
						}
						continue
					}
					rho, ux, uy, uz := init(b.X0+x, b.Y0+y, b.Z0+k-1)
					s := [4]uint64{math.Float64bits(rho), math.Float64bits(ux), math.Float64bits(uy), math.Float64bits(uz)}
					if runs[n].eq != &rest && s == last {
						runs[n].end = k + 1
						continue
					}
					eq := &eqs[k]
					l.Desc.EquilibriumAll(eq[:q], rho, ux, uy, uz)
					runs, last = append(runs, eqRun{k + 1, eq}), s
				}
			}
			for i := 0; i < q; i++ {
				dst := f[i*l.N+base : i*l.N+base+az]
				lo := 0
				for _, r := range runs {
					run, v := dst[lo:r.end], r.eq[i]
					for k := range run {
						run[k] = v
					}
					lo = r.end
				}
			}
		}
	}
}
