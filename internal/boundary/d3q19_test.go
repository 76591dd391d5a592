package boundary

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
)

// adversarialCell fills f (length Q) with one of the population kinds the
// outlet row must treat exactly like the generic loop: near-equilibrium
// cells, signed noise whose density may be ≤ 0, mirror-symmetric cells
// whose momenta cancel to zero, and a positive rest population over
// signed zeros, whose velocity components are ±0.
func adversarialCell(r *rand.Rand, d *lattice.Descriptor, f []float64, kind int) {
	for i := range f {
		switch kind {
		case 0:
			f[i] = d.W[i] * (1 + 0.2*(r.Float64()-0.5))
		case 1:
			f[i] = r.Float64() - 0.6
		case 2:
			if j := d.Opp[i]; j < i {
				f[i] = f[j]
			} else {
				f[i] = d.W[i] * (1 + r.Float64())
			}
		default:
			f[i] = 0
			if r.Intn(2) == 0 {
				f[i] = math.Copysign(0, -1)
			}
		}
	}
	if kind == 3 {
		f[0] = 0.5 + r.Float64()
	}
}

// TestOutletRowD3Q19MatchesGeneric holds the unrolled D3Q19 outlet row
// bitwise to the descriptor-generic loop it replaces, chunk by chunk,
// over every kind of adversarialCell (ρ ≤ 0 cells and ±0 velocity
// components included) and every chunk length.
func TestOutletRowD3Q19MatchesGeneric(t *testing.T) {
	d := &lattice.D3Q19
	r := rand.New(rand.NewSource(19))
	f := make([]float64, d.Q)
	for trial := 0; trial < 400; trial++ {
		n := 1 + trial%chunk
		rho := 0.9 + 0.2*r.Float64()
		var want, got block
		for c := 0; c < n; c++ {
			adversarialCell(r, d, f, r.Intn(4))
			want.store(f, c)
		}
		got = want
		for c := 0; c < n; c++ {
			want.load(f, c)
			m, jx, jy, jz := d.Moments(f)
			var ux, uy, uz float64
			if m > 0 {
				ux, uy, uz = jx/m, jy/m, jz/m
			}
			d.EquilibriumAll(f, rho, ux, uy, uz)
			want.store(f, c)
		}
		outletRowD3Q19(&got, n, rho)
		for i := 0; i < d.Q; i++ {
			for c := 0; c < n; c++ {
				if w, g := want[i*chunk+c], got[i*chunk+c]; math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("trial %d: population %d of staged cell %d = %v, want %v", trial, i, c, g, w)
				}
			}
		}
	}
}

// TestPressureOutletMatchesDefinitionAdversarial: the outlet on every
// face, at both AA parities, on D3Q19 (the unrolled row) and on D2Q9 and
// D3Q27 (the generic loop), matches its per-cell definition bitwise when
// the layer it reads holds adversarialCell populations.
func TestPressureOutletMatchesDefinitionAdversarial(t *testing.T) {
	for _, d := range []*lattice.Descriptor{&lattice.D3Q19, &lattice.D2Q9, &lattice.D3Q27} {
		nz := 5
		if d.D == 2 {
			nz = 1
		}
		for _, odd := range []bool{false, true} {
			for face := core.FaceXMin; face <= core.FaceZMax; face++ {
				if d.D == 2 && face >= core.FaceZMin {
					continue
				}
				mk := func() *core.Lattice {
					l, err := core.NewLattice(d, 70, 4, nz, 0.8)
					if err != nil {
						t.Fatal(err)
					}
					r := rand.New(rand.NewSource(int64(face) + 1))
					f := make([]float64, d.Q)
					for y := -1; y <= l.NY; y++ {
						for x := -1; x <= l.NX; x++ {
							for z := -1; z <= l.NZ; z++ {
								adversarialCell(r, d, f, r.Intn(4))
								l.SetPopulations(x, y, z, f)
							}
						}
					}
					if odd {
						l.SetStep(1)
					}
					l.EnableAA()
					return l
				}
				c := &PressureOutlet{Face: face, Rho: 1.02}
				want, got := mk(), mk()
				reference(want, c)
				ApplyWhole(c, got)
				requireSameCells(t, want, got, fmt.Sprintf("%s outlet on %v, odd=%v", d.Name, face, odd))
			}
		}
	}
}
