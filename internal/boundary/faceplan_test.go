package boundary

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sunwaylb/internal/core"
)

// stateLattice builds a non-cubic lattice whose every allocated cell (halo
// included) holds distinct positive populations, with interior walls
// touching every face, in the given storage: "db" (double buffer), "even"
// or "odd" (AA at that phase). All three hold the same logical state.
func stateLattice(t testing.TB, storage string) *core.Lattice {
	t.Helper()
	l := newLat(t, 5, 4, 6)
	f := make([]float64, l.Desc.Q)
	for y := -1; y <= l.NY; y++ {
		for x := -1; x <= l.NX; x++ {
			for z := -1; z <= l.NZ; z++ {
				for i := range f {
					f[i] = l.Desc.W[i] * (1 + 0.1*math.Sin(float64(7*l.Idx(x, y, z)+3*i)))
				}
				l.SetPopulations(x, y, z, f)
			}
		}
	}
	for _, w := range [][3]int{{0, 1, 2}, {4, 2, 0}, {2, 0, 5}, {3, 3, 3}, {0, 0, 0}, {4, 3, 5}} {
		l.SetWall(w[0], w[1], w[2])
	}
	l.SetMovingWall(1, 3, 0, 0.01, 0, 0.02)
	switch storage {
	case "even":
		l.EnableAA()
	case "odd":
		l.SetStep(1)
		l.EnableAA()
	}
	return l
}

// cellwise is the per-cell definition of a face condition, written
// against Populations/SetPopulations only: every cell of the full halo
// plane of the face gets f(halo coordinates, populations of the cell one
// step inward).
func cellwise(l *core.Lattice, face core.Face, fill func(x, y, z int, inner, halo []float64) core.CellType) {
	lo := [3]int{-1, -1, -1}
	hi := [3]int{l.NX, l.NY, l.NZ}
	axis, step := int(face)/2, 1
	if face%2 == 0 {
		hi[axis] = -1
	} else {
		lo[axis], step = hi[axis], -1
	}
	inner, halo := make([]float64, l.Desc.Q), make([]float64, l.Desc.Q)
	for y := lo[1]; y <= hi[1]; y++ {
		for x := lo[0]; x <= hi[0]; x++ {
			for z := lo[2]; z <= hi[2]; z++ {
				in := [3]int{x, y, z}
				in[axis] += step
				l.Populations(in[0], in[1], in[2], inner)
				l.Populations(x, y, z, halo)
				l.Flags[l.Idx(x, y, z)] = fill(x, y, z, inner, halo)
				l.SetPopulations(x, y, z, halo)
			}
		}
	}
}

// reference applies the per-cell definition of each condition type.
func reference(l *core.Lattice, c Condition) {
	d := l.Desc
	in := func(v, n int) int { return max(0, min(v, n-1)) }
	macro := func(f []float64) (rho, ux, uy, uz float64) {
		var jx, jy, jz float64
		for i, fi := range f {
			rho += fi
			jx += fi * float64(d.C[i][0])
			jy += fi * float64(d.C[i][1])
			jz += fi * float64(d.C[i][2])
		}
		if rho > 0 {
			ux, uy, uz = jx/rho, jy/rho, jz/rho
		}
		return
	}
	switch c := c.(type) {
	case *VelocityInlet:
		cellwise(l, c.Face, func(x, y, z int, _, halo []float64) core.CellType {
			u := c.U
			if c.Profile != nil {
				u = c.Profile(in(x, l.NX), in(y, l.NY), in(z, l.NZ))
			}
			d.EquilibriumAll(halo, 1, u[0], u[1], u[2])
			return core.Ghost
		})
	case *PressureOutlet:
		cellwise(l, c.Face, func(_, _, _ int, inner, halo []float64) core.CellType {
			_, ux, uy, uz := macro(inner)
			d.EquilibriumAll(halo, c.Rho, ux, uy, uz)
			return core.Ghost
		})
	case *NEEInlet:
		cellwise(l, c.Face, func(x, y, z int, inner, halo []float64) core.CellType {
			rho, ux, uy, uz := macro(inner)
			u := c.U
			if c.Profile != nil {
				u = c.Profile(in(x, l.NX), in(y, l.NY), in(z, l.NZ))
			}
			feqF := make([]float64, d.Q)
			d.EquilibriumAll(halo, rho, u[0], u[1], u[2])
			d.EquilibriumAll(feqF, rho, ux, uy, uz)
			for i := range halo {
				halo[i] += inner[i] - feqF[i]
			}
			return core.Ghost
		})
	case *Outflow:
		cellwise(l, c.Face, func(_, _, _ int, inner, halo []float64) core.CellType {
			copy(halo, inner)
			return core.Ghost
		})
	case *FreeSlip:
		m := mirrorTable(d, int(c.Face)/2)
		cellwise(l, c.Face, func(_, _, _ int, inner, halo []float64) core.CellType {
			for i := range halo {
				halo[i] = inner[m[i]]
			}
			return core.Ghost
		})
	case *NoSlip:
		cellwise(l, c.Face, func(_, _, _ int, _, _ []float64) core.CellType { return core.Wall })
	case *MovingNoSlip:
		cellwise(l, c.Face, func(x, y, z int, _, _ []float64) core.CellType {
			if l.CellTypeAt(x, y, z) != core.MovingWall {
				l.SetMovingWall(x, y, z, c.U[0], c.U[1], c.U[2])
			}
			return core.MovingWall
		})
	case *Periodic:
		// The wrap: each halo plane takes the opposite interior layer.
		n := [3]int{l.NX, l.NY, l.NZ}[c.Axis]
		for side := 0; side < 2; side++ {
			cellwise(l, core.Face(2*c.Axis+side), func(x, y, z int, _, halo []float64) core.CellType {
				from := [3]int{x, y, z}
				from[c.Axis] = []int{n - 1, 0}[side]
				l.Populations(from[0], from[1], from[2], halo)
				if t := l.CellTypeAt(from[0], from[1], from[2]); t != core.Ghost {
					return t
				}
				return l.CellTypeAt(x, y, z)
			})
		}
	}
}

// TestFacePlansMatchCellwiseDefinition applies every condition type on
// every face to the same logical state held in a double buffer and in AA
// storage at both phases, and requires every allocated cell — edges and
// corners included — to end up with exactly the populations and flag the
// per-cell definition produces.
func TestFacePlansMatchCellwiseDefinition(t *testing.T) {
	profile := func(x, y, z int) [3]float64 {
		return [3]float64{0.01 * float64(x+1), 0.002 * float64(y), -0.003 * float64(z)}
	}
	for face := core.FaceXMin; face <= core.FaceZMax; face++ {
		conds := []Condition{
			&VelocityInlet{Face: face, U: [3]float64{0.03, -0.01, 0.02}},
			&VelocityInlet{Face: face, Profile: profile},
			&PressureOutlet{Face: face, Rho: 1.02},
			&Outflow{Face: face},
			&NoSlip{Face: face},
			&MovingNoSlip{Face: face, U: [3]float64{0.02, 0, 0.01}},
			&FreeSlip{Face: face},
			&NEEInlet{Face: face, U: [3]float64{0.02, 0.01, 0}},
			&NEEInlet{Face: face, Profile: profile},
		}
		if face%2 == 0 {
			conds = append(conds, &Periodic{Axis: int(face) / 2})
		}
		for _, c := range conds {
			want := stateLattice(t, "db")
			reference(want, c)
			for _, storage := range []string{"db", "even", "odd"} {
				got := stateLattice(t, storage)
				ApplyWhole(c, got)
				requireSameCells(t, want, got, fmt.Sprintf("%s on %s storage", c.Name(), storage))
			}
		}
	}
}

// requireSameCells fails unless every allocated cell of got has the
// logical populations, the flag and the wall velocity of the same cell of
// want.
func requireSameCells(t *testing.T, want, got *core.Lattice, what string) {
	t.Helper()
	var fw, fg []float64
	for y := -1; y <= want.NY; y++ {
		for x := -1; x <= want.NX; x++ {
			for z := -1; z <= want.NZ; z++ {
				if w, g := want.CellTypeAt(x, y, z), got.CellTypeAt(x, y, z); w != g {
					t.Fatalf("%s: cell (%d,%d,%d) flag %v, want %v", what, x, y, z, g, w)
				}
				idx := want.Idx(x, y, z)
				if w, g := want.WallVel[idx], got.WallVel[idx]; w != g {
					t.Fatalf("%s: cell (%d,%d,%d) wall velocity %v, want %v", what, x, y, z, g, w)
				}
				fw = want.Populations(x, y, z, fw)
				fg = got.Populations(x, y, z, fg)
				for i := range fw {
					if math.Float64bits(fw[i]) != math.Float64bits(fg[i]) {
						t.Fatalf("%s: cell (%d,%d,%d) pop %d = %v, want %v", what, x, y, z, i, fg[i], fw[i])
					}
				}
			}
		}
	}
}

// RankCase is one FuzzAAStepConditions case as the rank world takes it:
// the grid, the step count, the face conditions and periodic axes, the
// initial state per cell and the obstacle (nil for none).
type RankCase struct {
	NX, NY, NZ, Steps int
	FaceBC            map[core.Face]Condition
	Periodic          [3]bool
	Init              func(x, y, z int) (rho, ux, uy, uz float64)
	Wall              *[3]int
}

// RankArm runs a case on rank grids. This package cannot import the rank
// world (it imports this one), so an external test file of the package
// installs it.
var RankArm func(t *testing.T, c RankCase)

// FuzzAAStepConditions is core's FuzzAAStep with boundary handling in the
// loop: random small grids run a seeded condition set (one kind per axis,
// inlets with or without a profile, the wraps in axis order, ahead of the
// conditions or, as the CLI orders them, z first and x and y last) for a
// random number of steps through the double-buffer kernel, through AA
// storage on a two-worker pool, and through a pool of one to three workers
// that runs the set inside its sweep (StepFaces), reading across the
// wraps. Every fluid cell must agree bit for bit at the stopping parity;
// the StepFaces lattice must also hold every interior cell and every halo
// cell a condition reads as the AA pool's after a whole fill, and every
// slot once a whole fill has run on it too. Its rank arm (RankArm) runs
// the same case on 2x1, 1x2 and 3x1 rank grids, whose ranks fill their
// halo inside their sweeps, against a serial reference in the rank
// world's condition order, after the drawn step count and one more. Run
// under -race it also checks that the conditions and the pool workers
// never touch the lattice at the same time, except where StepFaces's
// plane split lets them.
//
// Populations of solid cells are undefined in both schemes (the double
// buffer leaves stale values there, AA parks bounced ones), so the cases
// keep them out of every condition's reach: obstacles stay off the
// boundary layers and the wall-type conditions come last, as the package
// asks for watertight corners.
func FuzzAAStepConditions(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(4), uint8(3), true)
	f.Add(int64(2), uint8(6), uint8(3), uint8(8), uint8(4), false)
	f.Add(int64(3), uint8(2), uint8(2), uint8(2), uint8(1), true)
	f.Add(int64(4), uint8(5), uint8(7), uint8(3), uint8(6), true)
	f.Add(int64(5), uint8(3), uint8(6), uint8(5), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, nx, ny, nz, steps uint8, walls bool) {
		dim := func(v uint8) int { return 2 + int(v)%7 }
		NX, NY, NZ := dim(nx), dim(ny), dim(nz)
		nsteps := 1 + int(steps)%6
		rng := rand.New(rand.NewSource(seed))
		// The draws added since the corpus was recorded come from their
		// own stream, so the recorded seeds keep their grids and kinds.
		more := rand.New(rand.NewSource(seed + 2))
		order, workers := more.Intn(3), 1+more.Intn(3)
		profile := func(x, y, z int) [3]float64 {
			return [3]float64{0.03 + 0.002*float64((x+2*y+3*z)%5), 0.01, -0.005}
		}

		var set Set
		var conds, wraps, solid []Condition
		rc := RankCase{NX: NX, NY: NY, NZ: NZ, Steps: nsteps, FaceBC: map[core.Face]Condition{}}
		for axis := 0; axis < 3; axis++ {
			lo, hi := core.Face(2*axis), core.Face(2*axis+1)
			var u [3]float64
			u[axis], u[(axis+1)%3] = 0.03, 0.01
			var pair, ranked [2]Condition
			switch rng.Intn(5) {
			case 0:
				wraps = append(wraps, &Periodic{Axis: axis})
				rc.Periodic[axis] = true
			case 1:
				in := &VelocityInlet{Face: lo, U: u}
				if more.Intn(2) == 0 {
					in.Profile = profile
				}
				pair = [2]Condition{in, &PressureOutlet{Face: hi, Rho: 1}}
			case 2:
				in := &NEEInlet{Face: lo, U: u}
				if more.Intn(2) == 0 {
					in.Profile = profile
				}
				pair = [2]Condition{in, &Outflow{Face: hi}}
			case 3:
				solid = append(solid, &NoSlip{Face: lo}, &MovingNoSlip{Face: hi, U: [3]float64{u[1], u[2], u[0]}})
				ranked = [2]Condition{solid[len(solid)-2], solid[len(solid)-1]}
			case 4:
				pair = [2]Condition{&FreeSlip{Face: lo}, &FreeSlip{Face: hi}}
			}
			if ranked[0] == nil {
				ranked = pair
			}
			if ranked[0] != nil {
				rc.FaceBC[lo], rc.FaceBC[hi] = ranked[0], ranked[1]
			}
			switch {
			case rc.Periodic[axis] && order == 0:
				set.Add(wraps[len(wraps)-1])
			case pair[0] != nil:
				conds = append(conds, pair[:]...)
				if order == 0 {
					set.Add(pair[:]...)
				}
			}
		}
		switch order {
		case 1: // the wraps first, as the bench orders them
			set.Add(wraps...)
			set.Add(conds...)
		case 2: // the z wrap, the conditions, the x and y wraps: the CLI's
			last := wraps
			if n := len(wraps); n > 0 && wraps[n-1].(*Periodic).Axis == 2 {
				set.Add(wraps[n-1])
				last = wraps[:n-1]
			}
			set.Add(conds...)
			set.Add(last...)
		}
		set.Add(solid...)

		// The initial state, drawn once per cell in y, x, z order.
		r := rand.New(rand.NewSource(seed + 1))
		state := make([][4]float64, NX*NY*NZ)
		for y := 0; y < NY; y++ {
			for x := 0; x < NX; x++ {
				for z := 0; z < NZ; z++ {
					state[(y*NX+x)*NZ+z] = [4]float64{1 + 0.1*(r.Float64()-0.5),
						0.04 * (r.Float64() - 0.5), 0.04 * (r.Float64() - 0.5), 0.04 * (r.Float64() - 0.5)}
				}
			}
		}
		rc.Init = func(x, y, z int) (rho, ux, uy, uz float64) {
			s := state[(y*NX+x)*NZ+z]
			return s[0], s[1], s[2], s[3]
		}
		if walls && NX > 2 && NY > 2 && NZ > 2 {
			rc.Wall = &[3]int{1 + r.Intn(NX-2), 1 + r.Intn(NY-2), 1 + r.Intn(NZ-2)}
		}
		mk := func() *core.Lattice {
			l := newLat(t, NX, NY, NZ)
			for y := 0; y < NY; y++ {
				for x := 0; x < NX; x++ {
					for z := 0; z < NZ; z++ {
						rho, ux, uy, uz := rc.Init(x, y, z)
						l.SetCell(x, y, z, rho, ux, uy, uz)
					}
				}
			}
			if w := rc.Wall; w != nil {
				l.SetWall(w[0], w[1], w[2])
			}
			return l
		}
		ref, aa, faces := mk(), mk(), mk()
		pool := core.NewPool(aa, 2)
		defer pool.Close()
		facePool := core.NewPool(faces, workers)
		defer facePool.Close()
		for s := 0; s < nsteps; s++ {
			set.Apply(ref)
			set.Apply(aa)
			ref.StepFused()
			pool.Step()
			facePool.StepFaces(&set)
		}
		var fr, fa []float64
		for y := 0; y < NY; y++ {
			for x := 0; x < NX; x++ {
				for z := 0; z < NZ; z++ {
					if ref.CellTypeAt(x, y, z) != core.Fluid {
						continue
					}
					fr = ref.Populations(x, y, z, fr)
					for _, got := range []struct {
						name string
						l    *core.Lattice
					}{{"AA", aa}, {"AA StepFaces", faces}} {
						fa = got.l.Populations(x, y, z, fa)
						for q := range fr {
							if math.Float64bits(fr[q]) != math.Float64bits(fa[q]) {
								t.Fatalf("cell (%d,%d,%d) pop %d after %d steps: double buffer %v, %s %v",
									x, y, z, q, nsteps, fr[q], got.name, fa[q])
							}
						}
					}
				}
			}
		}
		want := cloneLattice(aa)
		set.Apply(want)
		requireSameRead(t, &set, want, faces, "AA StepFaces")
		set.Apply(faces)
		requireSameArrays(t, want, faces, "AA StepFaces, filled whole")
		if RankArm != nil {
			RankArm(t, rc)
		}
	})
}
