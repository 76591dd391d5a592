package core

import (
	"math"
	"testing"
)

// TestMacroIntoMatchesMacroAt: the row-wise, population-outer MacroInto
// writes bitwise what the per-cell MacroAt computes — with a body force,
// for a fluid cell of zero density, on the double buffer and at both AA
// phases — zeros for solid cells, and nothing outside the box's place in a
// larger, reused field, for the whole interior, a sub-box and a plane
// normal to each axis.
func TestMacroIntoMatchesMacroAt(t *testing.T) {
	const x0, y0, z0 = 2, 1, 3
	for _, storage := range []string{"db", "even", "odd"} {
		l := phaseLattice(t, storage, 0.25)
		l.Force = [3]float64{1e-5, -2e-5, 3e-5}
		l.SetPopulations(1, 1, 1, make([]float64, l.Desc.Q))
		for _, b := range []Box{
			l.Interior(),
			{X0: 1, Y0: 1, Z0: 1, NX: 3, NY: 2, NZ: 4},
			{Z0: 2, NX: l.NX, NY: l.NY, NZ: 1},
			{Y0: 1, NX: l.NX, NY: 1, NZ: l.NZ},
			{X0: 3, NX: 1, NY: l.NY, NZ: l.NZ},
		} {
			m := NewMacroField(b.NX+x0+1, b.NY+y0+2, b.NZ+z0)
			for _, ch := range [][]float64{m.Rho, m.Ux, m.Uy, m.Uz} {
				for i := range ch {
					ch[i] = math.NaN()
				}
			}
			l.MacroInto(m, x0, y0, z0, b)
			for y := 0; y < m.NY; y++ {
				for x := 0; x < m.NX; x++ {
					for z := 0; z < m.NZ; z++ {
						i := m.Idx(x, y, z)
						got := [4]float64{m.Rho[i], m.Ux[i], m.Uy[i], m.Uz[i]}
						bx, by, bz := x-x0, y-y0, z-z0
						if bx < 0 || bx >= b.NX || by < 0 || by >= b.NY || bz < 0 || bz >= b.NZ {
							if !math.IsNaN(got[0]) || !math.IsNaN(got[3]) {
								t.Fatalf("%s %+v: (%d,%d,%d) outside the box was written", storage, b, x, y, z)
							}
							continue
						}
						lx, ly, lz := b.X0+bx, b.Y0+by, b.Z0+bz
						var want [4]float64
						if l.CellTypeAt(lx, ly, lz) == Fluid {
							a := l.MacroAt(lx, ly, lz)
							want = [4]float64{a.Rho, a.Ux, a.Uy, a.Uz}
						}
						for c := range got {
							if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
								t.Fatalf("%s %+v: cell (%d,%d,%d) channel %d = %v, MacroAt %v", storage, b, lx, ly, lz, c, got[c], want[c])
							}
						}
					}
				}
			}
		}
	}
}
