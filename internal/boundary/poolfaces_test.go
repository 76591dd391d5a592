package boundary

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sunwaylb/internal/core"
)

// axisConditions builds the conditions of one role on one axis; the
// "walls" role's go last in the set, as the package asks for watertight
// corners.
func axisConditions(role string, axis int, mirror bool) (conds, walls []Condition) {
	lo, hi := core.Face(2*axis), core.Face(2*axis+1)
	if mirror {
		lo, hi = hi, lo
	}
	var u [3]float64
	u[axis], u[(axis+1)%3] = 0.03, 0.01
	if mirror {
		u[axis] = -u[axis]
	}
	profile := func(x, y, z int) [3]float64 {
		s := 1 + 0.1*float64((x+2*y+3*z)%5)
		return [3]float64{s * u[0], s * u[1], s * u[2]}
	}
	switch role {
	case "inout":
		return []Condition{&VelocityInlet{Face: lo, Rho: 1.01, Profile: profile}, &PressureOutlet{Face: hi, Rho: 1}}, nil
	case "uniform":
		return []Condition{&VelocityInlet{Face: lo, U: u}, &Outflow{Face: hi}}, nil
	case "nee":
		return []Condition{&NEEInlet{Face: lo, Profile: profile}, &Outflow{Face: hi}}, nil
	case "nee-uniform":
		return []Condition{&NEEInlet{Face: lo, U: u}, &PressureOutlet{Face: hi, Rho: 0.99}}, nil
	case "free":
		return []Condition{&FreeSlip{Face: lo}, &FreeSlip{Face: hi}}, nil
	case "wrap":
		return []Condition{&Periodic{Axis: axis}}, nil
	case "walls":
		return nil, []Condition{&NoSlip{Face: lo}, &MovingNoSlip{Face: hi, U: [3]float64{u[1], u[2], u[0]}}}
	}
	panic("unknown role " + role)
}

// faceSets are condition sets that put every condition type on every
// face, y faces and all three wraps included: each row of roles is
// rotated through the axes and mirrored.
func faceSets() map[string]*Set {
	rows := [][3]string{
		{"inout", "nee", "walls"},
		{"uniform", "nee-uniform", "free"},
		{"free", "wrap", "inout"},
	}
	sets := map[string]*Set{}
	for _, row := range rows {
		for rot := 0; rot < 3; rot++ {
			for _, mirror := range []bool{false, true} {
				var s Set
				var walls []Condition
				name := ""
				for axis := 0; axis < 3; axis++ {
					role := row[(axis+rot)%3]
					c, w := axisConditions(role, axis, mirror)
					s.Add(c...)
					walls = append(walls, w...)
					name += fmt.Sprintf("%c=%s,", "xyz"[axis], role)
				}
				s.Add(walls...)
				sets[fmt.Sprintf("%smirror=%v", name, mirror)] = &s
			}
		}
	}
	// All three wraps, the lid regime and the bench's channel, in their
	// own orders.
	var wraps, lid, channel Set
	wraps.Add(&Periodic{Axis: 0}, &Periodic{Axis: 1}, &Periodic{Axis: 2})
	lid.Add(&NoSlip{Face: core.FaceXMin}, &NoSlip{Face: core.FaceXMax},
		&NoSlip{Face: core.FaceYMin}, &NoSlip{Face: core.FaceYMax},
		&NoSlip{Face: core.FaceZMin}, &MovingNoSlip{Face: core.FaceZMax, U: [3]float64{0.05, 0, 0}})
	channel.Add(channelConditions()...)
	sets["wraps"], sets["lid"], sets["channel"] = &wraps, &lid, &channel
	for name, s := range wrapSets() {
		sets[name] = s
	}
	return sets
}

// wrapSets wrap y, z, yz and xyz, with conditions that read the wrapped
// halo on the other axes (an x inlet with a profile and an outlet, z
// NEE inlet and outflow, y free-slip planes), each in the CLI's order
// (psolve.HaloSet: the z wrap, the conditions in face order, the x and
// y wraps) and in the bench's (the wraps first, y before z). In the
// CLI's order the inlet's profile comes after the z wrap, so the z ends
// of its halo are its own, not the wrap's.
func wrapSets() map[string]*Set {
	profile := func(x, y, z int) [3]float64 {
		return [3]float64{0.03 * (1 + 0.1*float64((x+2*y+3*z)%5)), 0.01, 0}
	}
	inout := []Condition{&VelocityInlet{Face: core.FaceXMin, Rho: 1.01, Profile: profile},
		&PressureOutlet{Face: core.FaceXMax, Rho: 1}}
	faces := map[string][]Condition{
		"y":   append(inout[:2:2], &NEEInlet{Face: core.FaceZMin, U: [3]float64{0, 0.01, 0.02}}, &Outflow{Face: core.FaceZMax}),
		"z":   append(inout[:2:2], &FreeSlip{Face: core.FaceYMin}, &FreeSlip{Face: core.FaceYMax}),
		"yz":  inout,
		"xyz": nil,
	}
	sets := map[string]*Set{}
	for axes, conds := range faces {
		var cli, bench Set
		wraps := map[byte]*Periodic{}
		for i := range axes {
			wraps[axes[i]] = &Periodic{Axis: int(axes[i] - 'x')}
		}
		add := func(s *Set, a byte) {
			if p := wraps[a]; p != nil {
				s.Add(p)
			}
		}
		add(&cli, 'z')
		cli.Add(conds...)
		add(&cli, 'x')
		add(&cli, 'y')
		add(&bench, 'x')
		add(&bench, 'y')
		add(&bench, 'z')
		bench.Add(conds...)
		sets["wrap "+axes+" cli order"], sets["wrap "+axes+" bench order"] = &cli, &bench
	}
	return sets
}

// faceLattice is a lattice of random near-equilibrium cells, with walls
// and a moving wall inside it (so the sweep meets mixed rows) when walls
// is set.
func faceLattice(t testing.TB, nx, ny, nz int, walls bool) *core.Lattice {
	l := newLat(t, nx, ny, nz)
	r := rand.New(rand.NewSource(int64(nx*ny*nz + nx)))
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			for z := 0; z < nz; z++ {
				l.SetCell(x, y, z, 1+0.1*(r.Float64()-0.5),
					0.04*(r.Float64()-0.5), 0.04*(r.Float64()-0.5), 0.04*(r.Float64()-0.5))
			}
		}
	}
	if walls {
		for i := 0; i < nx*ny*nz/40; i++ {
			l.SetWall(r.Intn(nx), r.Intn(ny), r.Intn(nz))
		}
		l.SetMovingWall(nx/2, ny/2, nz/2, 0.01, -0.02, 0.005)
	}
	l.EnableAA()
	return l
}

// cloneLattice deep-copies the state a step and its conditions touch.
func cloneLattice(l *core.Lattice) *core.Lattice {
	c := *l
	c.F[0] = append([]float64(nil), l.F[0]...)
	c.Flags = append([]core.CellType(nil), l.Flags...)
	c.WallVel = make(map[int][3]float64, len(l.WallVel))
	for k, v := range l.WallVel {
		c.WallVel[k] = v
	}
	return &c
}

// requireSameArrays fails unless the raw population arrays, the flags and
// the wall velocities of got and want are bitwise equal.
func requireSameArrays(t *testing.T, want, got *core.Lattice, what string) {
	t.Helper()
	for i, w := range want.F[0] {
		if g := got.F[0][i]; math.Float64bits(w) != math.Float64bits(g) {
			x, y, z := want.Coords(i % want.N)
			t.Fatalf("%s: slot %d (population %d of cell (%d,%d,%d)) = %v, want %v",
				what, i, i/want.N, x, y, z, g, w)
		}
	}
	requireSameFlags(t, want, got, what)
}

// requireSameFlags fails unless got and want are at the same step with
// the same flags and wall velocities.
func requireSameFlags(t *testing.T, want, got *core.Lattice, what string) {
	t.Helper()
	if want.Step() != got.Step() {
		t.Fatalf("%s: step %d, want %d", what, got.Step(), want.Step())
	}
	for i, w := range want.Flags {
		if g := got.Flags[i]; g != w {
			x, y, z := want.Coords(i)
			t.Fatalf("%s: cell (%d,%d,%d) flag %v, want %v", what, x, y, z, g, w)
		}
	}
	if len(want.WallVel) != len(got.WallVel) {
		t.Fatalf("%s: %d wall velocities, want %d", what, len(got.WallVel), len(want.WallVel))
	}
	for k, w := range want.WallVel {
		if g, ok := got.WallVel[k]; !ok || g != w {
			t.Fatalf("%s: wall velocity of cell %d = %v, want %v", what, k, g, w)
		}
	}
}

// requireSameRead is the check for a set that wraps an axis: the sweep
// reads across the wrap, so StepFaces leaves the halo cells no step and
// no condition reads as they are. It fails unless got holds want's
// populations on every interior cell and on every halo cell on the inner
// line of a condition of set that reads one (an outlet, an NEE inlet, an
// outflow, a free-slip plane: the lines run into the wrapped axes' halo,
// z ends and y-halo rows included), and every cell's flag and wall
// velocity.
func requireSameRead(t *testing.T, set *Set, want, got *core.Lattice, what string) {
	t.Helper()
	var fw, fg []float64
	same := func(x, y, z int) {
		t.Helper()
		fw = want.Populations(x, y, z, fw)
		fg = got.Populations(x, y, z, fg)
		for i := range fw {
			if math.Float64bits(fw[i]) != math.Float64bits(fg[i]) {
				t.Fatalf("%s: cell (%d,%d,%d) population %d = %v, want %v", what, x, y, z, i, fg[i], fw[i])
			}
		}
	}
	for y := 0; y < want.NY; y++ {
		for x := 0; x < want.NX; x++ {
			for z := 0; z < want.NZ; z++ {
				same(x, y, z)
			}
		}
	}
	for _, c := range set.conds {
		switch c.(type) {
		case *PressureOutlet, *NEEInlet, *Outflow, *FreeSlip:
			f := c.HaloFace()
			for j := 0; j < want.FaceLines(f); j++ {
				ln := want.FaceLine(f, 0, j)
				for k := 0; k < ln.Len; k++ {
					same(want.Coords(ln.Cell(k)))
				}
			}
		}
	}
	requireSameFlags(t, want, got, what)
}

// requireSameFlow fails unless every allocated cell that is not a wall
// holds the same logical populations in got as in want, and every cell
// the same flag and wall velocity: the state a step reads.
func requireSameFlow(t *testing.T, want, got *core.Lattice, what string) {
	t.Helper()
	var fw, fg []float64
	for y := -1; y <= want.NY; y++ {
		for x := -1; x <= want.NX; x++ {
			for z := -1; z <= want.NZ; z++ {
				if f := want.CellTypeAt(x, y, z); f == core.Wall || f == core.MovingWall {
					continue
				}
				fw = want.Populations(x, y, z, fw)
				fg = got.Populations(x, y, z, fg)
				for i := range fw {
					if math.Float64bits(fw[i]) != math.Float64bits(fg[i]) {
						t.Fatalf("%s: cell (%d,%d,%d) population %d = %v, want %v", what, x, y, z, i, fg[i], fw[i])
					}
				}
			}
		}
	}
	requireSameFlags(t, want, got, what)
}

// TestPoolFacesMatchApplyThenStep: a pool step that runs the conditions
// inside its sweep (filling the next step's halo plane by plane) is
// exactly set.Apply followed by a plain step. After the reference has
// applied its set for the coming step too, every population slot, flag
// and wall velocity must agree bitwise — at odd and even step counts, at
// 1, 2 and 3 workers (so band edges go through the tail), on a lattice
// wider than the sweep's 64-cell x chunk, and on one with interior
// walls. Midway the run also takes a plain Step (the caller filling the
// halo itself), after which the pool fills the halo whole again. A set
// that wraps an axis is held to requireSameRead instead: its sweep reads
// across the wrap, so the halo cells nothing reads are not filled. Its
// lattice must still match every slot once a whole fill has run on it
// (what a checkpoint of the one-rank world writes).
//
// At the end the run switches to a second set for one step and back. The
// halo the pool had prepared for the first set then stays in the cells
// the second set does not fill, so only the state a step reads is held
// equal: every non-wall cell's populations, every flag. (Not on the grid
// with walls: a wall on a boundary layer hands the conditions that read
// it the populations parked in its slots, which that halo changes.)
func TestPoolFacesMatchApplyThenStep(t *testing.T) {
	grids := []struct {
		nx, ny, nz int
		walls      bool
	}{
		{8, 10, 5, false},
		{65, 6, 3, false},
		{7, 9, 6, true},
	}
	sets := faceSets()
	other := sets["lid"]
	for name, set := range sets {
		for _, g := range grids {
			for workers := 1; workers <= 3; workers++ {
				what := fmt.Sprintf("%s on %d×%d×%d walls=%v at %d workers", name, g.nx, g.ny, g.nz, g.walls, workers)
				ref := faceLattice(t, g.nx, g.ny, g.nz, g.walls)
				got := cloneLattice(ref)
				pool := core.NewPool(got, workers)
				for s := 1; s <= 10; s++ {
					cur := set
					switch s {
					case 4:
						set.Apply(ref)
						ref.StepFused()
						set.Apply(got)
						pool.Step()
						continue
					case 9:
						cur = other
					}
					cur.Apply(ref)
					ref.StepFused()
					pool.StepFaces(cur)
					wraps := set.Wrap() != (core.Wrap{})
					check := requireSameArrays
					switch {
					case s == 10 && g.walls, s != 1 && s != 2 && s != 7 && s != 8 && s != 10:
						continue
					case wraps && s == 10:
						check = func(t *testing.T, want, got *core.Lattice, what string) {
							requireSameRead(t, set, want, got, what)
						}
					case wraps:
						check = func(t *testing.T, want, got *core.Lattice, what string) {
							t.Helper()
							requireSameRead(t, set, want, got, what)
							filled := cloneLattice(got)
							set.Apply(filled)
							requireSameArrays(t, want, filled, what+", filled whole")
						}
					case s == 10:
						check = requireSameFlow
					}
					want := cloneLattice(ref)
					set.Apply(want)
					check(t, want, got, fmt.Sprintf("%s after %d steps", what, s))
				}
				pool.Close()
			}
		}
	}
}

// TestPoolFacesLidRaceFree is the lid regime — no-slip on five faces, a
// moving lid on z+ — through a three-worker pool that runs the
// conditions in its sweep. The x-face no-slips reset the lid's edge cells
// to Wall every step and the lid marks them moving again from the
// workers; under -race this fails if doing so writes the wall-velocity
// map the other workers' sweeps read.
func TestPoolFacesLidRaceFree(t *testing.T) {
	set := faceSets()["lid"]
	ref := faceLattice(t, 8, 12, 6, false)
	got := cloneLattice(ref)
	pool := core.NewPool(got, 3)
	defer pool.Close()
	for s := 0; s < 6; s++ {
		set.Apply(ref)
		ref.StepFused()
		pool.StepFaces(set)
	}
	set.Apply(ref)
	requireSameArrays(t, ref, got, "lid after 6 steps")
}
