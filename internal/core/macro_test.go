package core

import (
	"math"
	"testing"
)

// TestMacroIntoMatchesMacroAt: the row-wise, population-outer MacroInto
// writes bitwise what the per-cell MacroAt computes — with a body force,
// for a fluid cell of zero density, on the double buffer and at both AA
// phases — zeros for solid cells, and nothing outside its block of a
// larger, reused field.
func TestMacroIntoMatchesMacroAt(t *testing.T) {
	const x0, y0, z0 = 2, 1, 3
	for _, storage := range []string{"db", "even", "odd"} {
		l := phaseLattice(t, storage, 0.25)
		l.Force = [3]float64{1e-5, -2e-5, 3e-5}
		l.SetPopulations(1, 1, 1, make([]float64, l.Desc.Q))
		m := NewMacroField(l.NX+x0+1, l.NY+y0+2, l.NZ+z0)
		for _, ch := range [][]float64{m.Rho, m.Ux, m.Uy, m.Uz} {
			for i := range ch {
				ch[i] = math.NaN()
			}
		}
		l.MacroInto(m, x0, y0, z0)
		for y := 0; y < m.NY; y++ {
			for x := 0; x < m.NX; x++ {
				for z := 0; z < m.NZ; z++ {
					i := m.Idx(x, y, z)
					got := [4]float64{m.Rho[i], m.Ux[i], m.Uy[i], m.Uz[i]}
					lx, ly, lz := x-x0, y-y0, z-z0
					if lx < 0 || lx >= l.NX || ly < 0 || ly >= l.NY || lz < 0 || lz >= l.NZ {
						if !math.IsNaN(got[0]) || !math.IsNaN(got[3]) {
							t.Fatalf("%s: (%d,%d,%d) outside the block was written", storage, x, y, z)
						}
						continue
					}
					var want [4]float64
					if l.CellTypeAt(lx, ly, lz) == Fluid {
						a := l.MacroAt(lx, ly, lz)
						want = [4]float64{a.Rho, a.Ux, a.Uy, a.Uz}
					}
					for c := range got {
						if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
							t.Fatalf("%s: cell (%d,%d,%d) channel %d = %v, MacroAt %v", storage, lx, ly, lz, c, got[c], want[c])
						}
					}
				}
			}
		}
	}
}
