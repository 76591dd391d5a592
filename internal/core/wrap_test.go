package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sunwaylb/internal/lattice"
)

// wrapTestLattice is a random near-equilibrium AA lattice with walls on
// boundary layers next to every face and a moving wall on one, so rows
// that read across a wrap meet mixed rows and bounce-back across it.
func wrapTestLattice(t *testing.T, nx, ny, nz int) *Lattice {
	t.Helper()
	l := newTestLattice(t, nx, ny, nz, 0.7)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			for z := 0; z < nz; z++ {
				h := func(k int) float64 { return math.Sin(float64(x*k+3*y+7*z*k) + 0.1*float64(k)) }
				l.SetCell(x, y, z, 1+0.05*h(1), 0.02*h(2), 0.02*h(3), 0.02*h(4))
			}
		}
	}
	l.SetWall(0, 0, 0)
	l.SetWall(nx-1, ny/2, nz-1)
	l.SetMovingWall(nx/2, ny-1, nz/2, 0.01, -0.02, 0.005)
	l.EnableAA()
	return l
}

// fillUnwrapped writes distinct populations, different every step s, into
// every halo cell of an axis w does not wrap: what a face condition or a
// halo exchange leaves there.
func fillUnwrapped(l *Lattice, w Wrap, s int) {
	f := make([]float64, l.Desc.Q)
	for y := -1; y <= l.NY; y++ {
		for x := -1; x <= l.NX; x++ {
			for z := -1; z <= l.NZ; z++ {
				c, n := [3]int{x, y, z}, [3]int{l.NX, l.NY, l.NZ}
				own := false
				for a := range c {
					own = own || !w[a] && (c[a] < 0 || c[a] >= n[a])
				}
				if !own {
					continue
				}
				for i := range f {
					f[i] = l.Desc.W[i] * (1 + 0.1*math.Sin(float64(7*l.Idx(x, y, z)+3*i+11*s)))
				}
				l.SetPopulations(x, y, z, f)
			}
		}
	}
}

// TestSweepAcrossWrapMatchesWholeWrap: a sweep that reads across the axes
// it wraps, with only PeriodicEdges filling their halo after the first
// step, keeps every interior cell's populations (walls included) bitwise
// as the plain sweep after whole wraps does — at both parities, on the
// unrolled row and on the generic sweep (noFastPath), for every
// combination of wrapped axes, with the rows swept in two bands in
// reverse order. The halo of the axes that do not wrap takes new values
// every step, in both lattices: before the wraps run on most steps, so
// their edges are the wraps', and after them on every third, so a row
// that reads across x or y finds the z ends where the fill left them.
func TestSweepAcrossWrapMatchesWholeWrap(t *testing.T) {
	grids := [][3]int{{5, 4, 3}, {6, 7, 17}, {3, 1, 9}, {1, 3, 1}}
	for m := 1; m < 8; m++ {
		w := Wrap{m&1 != 0, m&2 != 0, m&4 != 0}
		for _, g := range grids {
			for _, generic := range []bool{false, true} {
				what := fmt.Sprintf("wrap %v on %v generic=%v", w, g, generic)
				ref := wrapTestLattice(t, g[0], g[1], g[2])
				got := wrapTestLattice(t, g[0], g[1], g[2])
				ref.noFastPath, got.noFastPath = generic, generic
				for s := 0; s < 6; s++ {
					if s%3 != 2 {
						fillUnwrapped(ref, w, s)
						fillUnwrapped(got, w, s)
					}
					for a := 0; a < 3; a++ {
						if !w[a] {
							continue
						}
						ref.PeriodicAxis(a)
						if s == 0 {
							got.PeriodicAxis(a)
						} else {
							got.PeriodicEdges(a, 0, got.FaceLines(Face(2*a)), AllEdges(w))
						}
					}
					if s%3 == 2 {
						fillUnwrapped(ref, w, s)
						fillUnwrapped(got, w, s)
					}
					ref.StepFused()
					half := g[1] / 2
					got.SweepRows(0, got.NX, half, got.NY, w, nil)
					got.SweepRows(0, got.NX, 0, half, w, nil)
					got.CompleteStep()
					var fr, fg []float64
					for y := 0; y < g[1]; y++ {
						for x := 0; x < g[0]; x++ {
							for z := 0; z < g[2]; z++ {
								fr = ref.Populations(x, y, z, fr)
								fg = got.Populations(x, y, z, fg)
								for i := range fr {
									if math.Float64bits(fr[i]) != math.Float64bits(fg[i]) {
										t.Fatalf("%s after %d steps: cell (%d,%d,%d) population %d = %v, want %v",
											what, s+1, x, y, z, i, fg[i], fr[i])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPeriodicEdgesFillsMarkedCellsOnly: on every axis, at both parities
// and for random edge sets, PeriodicEdges leaves each cell of the axis's
// halo layers that its line or its place on the line marks with the whole
// wrap's populations and flag, bitwise, and every other cell as it was.
func TestPeriodicEdgesFillsMarkedCellsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(parity, s int) *Lattice {
		l := wrapTestLattice(t, 5, 4, 6)
		l.SetStep(parity)
		fillUnwrapped(l, Wrap{}, s)
		return l
	}
	for axis := 0; axis < 3; axis++ {
		fixed, run := 1, 2 // FaceLine's numbering, as in PeriodicEdges
		switch axis {
		case 1:
			fixed = 0
		case 2:
			run = 0
		}
		for parity := 0; parity < 2; parity++ {
			for trial := 0; trial < 40; trial++ {
				var e EdgeCells
				for f := range e.Halo {
					e.Halo[f], e.Layer[f] = rng.Intn(2) == 0, rng.Intn(2) == 0
				}
				before, whole, got := mk(parity, trial), mk(parity, trial), mk(parity, trial)
				whole.PeriodicAxis(axis)
				got.PeriodicEdges(axis, 0, got.FaceLines(Face(2*axis)), e)
				alloc := [3]int{got.AX, got.AY, got.AZ}
				marked := func(a, v int) bool {
					switch n := alloc[a]; {
					case v == 0:
						return e.Halo[2*a]
					case v == n-1:
						return e.Halo[2*a+1]
					}
					return v == 1 && e.Layer[2*a] || v == alloc[a]-2 && e.Layer[2*a+1]
				}
				var fw, fg []float64
				for ay := 0; ay < got.AY; ay++ {
					for ax := 0; ax < got.AX; ax++ {
						for az := 0; az < got.AZ; az++ {
							c := [3]int{ax, ay, az}
							want := before
							if (c[axis] == 0 || c[axis] == alloc[axis]-1) && (marked(fixed, c[fixed]) || marked(run, c[run])) {
								want = whole
							}
							fw = want.Populations(ax-1, ay-1, az-1, fw)
							fg = got.Populations(ax-1, ay-1, az-1, fg)
							k := got.Idx(ax-1, ay-1, az-1)
							for i := range fw {
								if math.Float64bits(fw[i]) != math.Float64bits(fg[i]) || want.Flags[k] != got.Flags[k] {
									t.Fatalf("axis %d parity %d edges %+v: allocated cell %v population %d = %v flag %v, want %v flag %v",
										axis, parity, e, c, i, fg[i], got.Flags[k], fw[i], want.Flags[k])
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkPeriodicEdges times the z wrap's edge fill on a 16×16×32 AA
// patch cut along x and y — the serve-jobs patch2 shape, z wrapped by
// the patch itself — called one y-plane at a time as a sweep's fill
// calls it, at both parities. The figure is ns per whole fill (every
// plane once).
func BenchmarkPeriodicEdges(b *testing.B) {
	l, err := NewLattice(&lattice.D3Q19, 16, 16, 32, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	l.EnableAA()
	e := AllEdges(Wrap{false, false, true})
	n := l.FaceLines(FaceZMin)
	for _, parity := range []string{"even", "odd"} {
		b.Run(parity, func(b *testing.B) {
			l.SetStep(len(parity) - 4) // 0 even, 1 odd
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					l.PeriodicEdges(2, j, j+1, e)
				}
			}
		})
	}
}
