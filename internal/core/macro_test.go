package core

import (
	"math"
	"math/rand"
	"testing"

	"sunwaylb/internal/lattice"
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

// TestMacroRowD3Q19Adversarial: the unrolled D3Q19 row writes bitwise
// what MacroAt computes (NaN for NaN: its sign and payload mean nothing)
// for populations drawn from ±0, subnormals, values whose sum cancels to
// ρ = 0, overflowing magnitudes, NaN and ±Inf, on solid and fluid cells,
// without a body force, with one of −0 (which keeps a momentum sum's
// signed zero visible) and with a real one, on the double buffer and at both AA
// parities, on rows shorter than eight cells.
func TestMacroRowD3Q19Adversarial(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-308, -1e-310,
		1, -1, 0.5, 1.0 / 3, 1e308, -1e308, 1e-300, math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(7))
	for _, storage := range []string{"db", "even", "odd"} {
		nz := math.Copysign(0, -1)
		for _, force := range [][3]float64{{}, {nz, nz, nz}, {1e-5, -2e-5, 3e-5}} {
			l := phaseLattice(t, storage, 0.25)
			if l.Desc != &lattice.D3Q19 || l.NZ >= 8 {
				t.Fatalf("fixture is %s with NZ %d, want D3Q19 rows under 8 cells", l.Desc.Name, l.NZ)
			}
			l.Force = force
			f := make([]float64, l.Desc.Q)
			for y := 0; y < l.NY; y++ {
				for x := 0; x < l.NX; x++ {
					for z := 0; z < l.NZ; z++ {
						switch k := rng.Intn(7); k {
						case 0: // all signed zeros: ρ = +0
							for i := range f {
								f[i] = pool[rng.Intn(2)]
							}
						case 1: // opposite pairs cancel: ρ = 0, j ≠ 0
							clear(f)
							f[1], f[2], f[11] = 1, -1.5, 0.5
						case 3: // ρ = 1, every term of one momentum sum −0
							a := rng.Intn(3)
							for i, c := range l.Desc.C {
								f[i] = 0
								if c[a] > 0 {
									f[i] = math.Copysign(0, -1)
								}
							}
							f[0] = 1
						default: // specials, non-finite ones in about a third of the cells
							n := len(pool) - 3
							if k == 2 {
								n = len(pool)
							}
							for i := range f {
								f[i] = pool[rng.Intn(n)]
								if rng.Intn(3) == 0 {
									f[i] = rng.NormFloat64()
								}
							}
						}
						l.SetPopulations(x, y, z, f)
					}
				}
			}
			m := NewMacroField(l.NX, l.NY, l.NZ)
			l.MacroInto(m, 0, 0, 0, l.Interior())
			for y := 0; y < l.NY; y++ {
				for x := 0; x < l.NX; x++ {
					for z := 0; z < l.NZ; z++ {
						var want Macro
						if l.CellTypeAt(x, y, z) == Fluid {
							want = l.MacroAt(x, y, z)
						}
						i := m.Idx(x, y, z)
						got := [4]float64{m.Rho[i], m.Ux[i], m.Uy[i], m.Uz[i]}
						for c, w := range [4]float64{want.Rho, want.Ux, want.Uy, want.Uz} {
							if math.Float64bits(got[c]) != math.Float64bits(w) && !(math.IsNaN(got[c]) && math.IsNaN(w)) {
								t.Fatalf("%s force %v: cell (%d,%d,%d) channel %d = %v (%#x), MacroAt %v (%#x)",
									storage, force, x, y, z, c, got[c], math.Float64bits(got[c]), w, math.Float64bits(w))
							}
						}
					}
				}
			}
		}
	}
}

// TestLatticeNonFinite: the lattice's finiteness pass counts what
// MacroField.NonFinite counts on the whole field MacroInto writes — a
// cell with a NaN or an infinite population, never a solid cell or one of
// zero density, where MacroInto writes zeros — on the double buffer and
// at both AA storage phases, without holding that field.
func TestLatticeNonFinite(t *testing.T) {
	for _, storage := range []string{"db", "even", "odd"} {
		l := phaseLattice(t, storage, 0.25)
		if n := l.NonFinite(); n != 0 {
			t.Fatalf("%s: %d non-finite cells in a finite lattice", storage, n)
		}
		f := make([]float64, l.Desc.Q)
		f[3] = math.NaN()
		l.SetPopulations(1, 2, 3, f)
		f[3] = math.Inf(1)
		l.SetPopulations(4, 0, 5, f)
		l.SetPopulations(0, 1, 2, f)                         // a wall: not counted
		l.SetPopulations(2, 3, 1, make([]float64, l.Desc.Q)) // zero density: not counted
		if got, want := l.NonFinite(), l.ComputeMacro().NonFinite(); got != want || got != 2 {
			t.Errorf("%s: lattice pass counts %d non-finite cells, the field %d, want 2", storage, got, want)
		}
	}
}

// BenchmarkLatticeNonFinite times the one-rank world's end-of-run
// finiteness pass on one bench-grid lattice (48×192×96).
func BenchmarkLatticeNonFinite(b *testing.B) {
	l := newTestLattice(b, 48, 192, 96, 0.6)
	l.EnableAA()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.NonFinite() != 0 {
			b.Fatal("non-finite cells in a rest lattice")
		}
	}
}
