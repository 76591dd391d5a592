package boundary_test

import (
	"fmt"
	"math"
	"testing"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/psolve"
)

func init() { boundary.RankArm = rankArm }

// rankArm is FuzzAAStepConditions' rank arm: the case on 2x1, 1x2 and 3x1
// rank grids (those the grid is wide enough for), stepped by
// psolve.Solver, whose ranks fill their own halo inside their sweeps. The
// gathered lattice must hold every fluid cell's populations bitwise as a
// serial lattice stepped by Set.Apply then StepFused, with the set in the
// rank world's order (psolve.HaloSet), after c.Steps steps and after one
// more. That order does not put the wall-type conditions last, so a
// condition may extrapolate from a wall halo cell; the populations parked
// there agree only between AA lattices, so the serial lattice is AA too.
func rankArm(t *testing.T, c boundary.RankCase) {
	const tau = 0.8 // the fuzz lattices'
	walls := func(x, y, z int) bool { return c.Wall != nil && *c.Wall == [3]int{x, y, z} }
	box := decomp.Block{NX: c.NX, NY: c.NY, NZ: c.NZ}
	var grids []string
	got := map[string]map[int]*core.Lattice{}
	for _, g := range [][2]int{{2, 1}, {1, 2}, {3, 1}} {
		if g[0] > c.NX || g[1] > c.NY {
			continue
		}
		name := fmt.Sprintf("%dx%d", g[0], g[1])
		grids = append(grids, name)
		got[name] = map[int]*core.Lattice{}
		opts := psolve.Options{
			GNX: c.NX, GNY: c.NY, GNZ: c.NZ, PX: g[0], PY: g[1], Tau: tau,
			PeriodicX: c.Periodic[0], PeriodicY: c.Periodic[1], PeriodicZ: c.Periodic[2],
			FaceBC: c.FaceBC, Walls: walls, Init: c.Init,
		}
		err := mpi.Run(g[0]*g[1], func(cm *mpi.Comm) error {
			s, err := psolve.New(cm, opts)
			if err != nil {
				return err
			}
			for n := 1; n <= c.Steps+1; n++ {
				s.Step()
				if n >= c.Steps {
					l, err := s.GatherLattice(0)
					if err != nil {
						return err
					}
					if l != nil {
						got[name][n] = l
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	ref, err := core.BuildLattice(&lattice.D3Q19, core.Box(box), tau, walls, c.Init)
	if err != nil {
		t.Fatal(err)
	}
	ref.EnableAA()
	set := psolve.HaloSet(c.Periodic[0], c.Periodic[1], c.Periodic[2],
		psolve.FaceConds(box, c.NX, c.NY, c.NZ, c.Periodic, c.FaceBC))
	for n := 1; n <= c.Steps+1; n++ {
		set.Apply(ref)
		ref.StepFused()
		if n < c.Steps {
			continue
		}
		for _, name := range grids {
			requireSameFluid(t, ref, got[name][n], fmt.Sprintf("%s ranks after %d steps", name, n))
		}
	}
}

// requireSameFluid fails unless every fluid cell of want holds the same
// populations in got.
func requireSameFluid(t *testing.T, want, got *core.Lattice, what string) {
	t.Helper()
	var fw, fg []float64
	for y := 0; y < want.NY; y++ {
		for x := 0; x < want.NX; x++ {
			for z := 0; z < want.NZ; z++ {
				if want.CellTypeAt(x, y, z) != core.Fluid {
					continue
				}
				fw = want.Populations(x, y, z, fw)
				fg = got.Populations(x, y, z, fg)
				for i := range fw {
					if math.Float64bits(fw[i]) != math.Float64bits(fg[i]) {
						t.Fatalf("%s: cell (%d,%d,%d) pop %d = %v, serial %v", what, x, y, z, i, fg[i], fw[i])
					}
				}
			}
		}
	}
}
