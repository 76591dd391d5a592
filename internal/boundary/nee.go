package boundary

import (
	"fmt"

	"sunwaylb/internal/core"
)

// NEEInlet is a non-equilibrium-extrapolation velocity inlet (Guo et al.
// 2002): the ghost cell receives the equilibrium of the prescribed
// velocity (with the neighbour's density) plus the neighbour's
// non-equilibrium part,
//
//	f_ghost = f^eq(ρ_f, u_w) + [f_f − f^eq(ρ_f, u_f)],
//
// which carries the local stress through the boundary and is second-order
// accurate where the plain equilibrium ghost (VelocityInlet) is first-order
// — visible as a smaller wall-adjacent error in a developing channel.
type NEEInlet struct {
	Face core.Face
	U    [3]float64
	// Profile, if non-nil, overrides U per halo cell (interior-clamped
	// coordinates, like VelocityInlet); it must be safe for concurrent
	// calls.
	Profile func(x, y, z int) [3]float64
}

// Name implements Condition.
func (v *NEEInlet) Name() string { return fmt.Sprintf("nee-inlet(%v)", v.Face) }

// HaloFace implements Condition.
func (v *NEEInlet) HaloFace() core.Face { return v.Face }

// ApplyLines implements Condition.
//
//lbm:hot traffic budget=320 assume q=19
func (v *NEEInlet) ApplyLines(l *core.Lattice, j0, j1 int) {
	d := l.Desc
	q := d.Q
	var buf block
	var fArr, feqW, feqF [core.MaxQ]float64
	f := fArr[:q]
	for j := j0; j < j1; j++ {
		halo, inner := l.FaceLine(v.Face, 1, j), l.FaceLine(v.Face, 0, j)
		for k0 := 0; k0 < halo.Len; k0 += chunk {
			k1 := min(k0+chunk, halo.Len)
			l.GatherLine(inner, k0, k1, buf[:], chunk)
			for c := 0; c < k1-k0; c++ {
				buf.load(f, c)
				// Neighbour macroscopic state.
				rho, jx, jy, jz := d.Moments(f)
				if rho <= 0 {
					// Solid or uninitialised neighbour: fall back to the
					// plain equilibrium ghost at unit density.
					rho = 1
					jx, jy, jz = 0, 0, 0
				}
				ux, uy, uz := jx/rho, jy/rho, jz/rho
				uw := v.U
				if v.Profile != nil {
					x, y, z := l.Coords(halo.Cell(k0 + c))
					uw = v.Profile(clamp(x, l.NX), clamp(y, l.NY), clamp(z, l.NZ))
				}
				d.EquilibriumAll(feqW[:q], rho, uw[0], uw[1], uw[2])
				d.EquilibriumAll(feqF[:q], rho, ux, uy, uz)
				for i := 0; i < q; i++ {
					f[i] = feqW[i] + (f[i] - feqF[i])
				}
				buf.store(f, c)
			}
			l.ScatterLine(halo, k0, k1, buf[:], chunk)
		}
		setFlags(l, halo, core.Ghost)
	}
}
