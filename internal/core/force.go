package core

// WallForce computes the hydrodynamic force exerted on all Wall and
// MovingWall cells by the momentum-exchange method: for every fluid→solid
// link, the population leaving the fluid cell towards the wall returns
// reversed, transferring 2·f*_i·c_i of momentum per step (plus the
// moving-wall correction). The current buffer must hold post-collision
// populations, i.e. call this right after a step.
//
// The returned force is in lattice units (momentum per time step); the
// cylinder and Suboff examples turn it into drag and lift coefficients.
func (l *Lattice) WallForce() (fx, fy, fz float64) {
	return l.WallForceWhere(func(x, y, z int) bool { return true })
}

// WallForceWhere computes the momentum-exchange force restricted to solid
// cells selected by pred — separating, e.g., the drag on a body from the
// forces on channel walls in the same domain. pred receives interior (or
// halo) coordinates of the SOLID cell receiving the momentum.
func (l *Lattice) WallForceWhere(pred func(x, y, z int) bool) (fx, fy, fz float64) {
	d := l.Desc
	src := l.F[l.src]
	var baseArr [MaxQ]int
	base := baseArr[:d.Q]
	for i := range base {
		base[i] = l.PopBase(i)
	}
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			rowBase := l.Idx(x, y, 0)
			for z := 0; z < l.NZ; z++ {
				idx := rowBase + z
				if l.Flags[idx] != Fluid {
					continue
				}
				for i := 1; i < d.Q; i++ {
					nb := idx + l.offs[i] // neighbour in direction i
					var transfer float64
					switch l.Flags[nb] {
					case Wall:
						transfer = 2 * src[base[i]+idx]
					case MovingWall:
						transfer = 2*src[base[i]+idx] - l.wallTerm(i, nb)
					default:
						continue
					}
					c := d.C[i]
					wx, wy, wz := x+c[0], y+c[1], z+c[2]
					if !pred(wx, wy, wz) {
						continue
					}
					fx += transfer * float64(c[0])
					fy += transfer * float64(c[1])
					fz += transfer * float64(c[2])
				}
			}
		}
	}
	return
}
