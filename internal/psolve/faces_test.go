package psolve

import (
	"fmt"
	"math"
	"testing"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
)

// axisRole puts the conditions of one role on one axis of o: a wrap, or a
// condition on each of its two faces (swapped when mirrored).
func axisRole(o *Options, role string, axis int, mirror bool) {
	lo, hi := core.Face(2*axis), core.Face(2*axis+1)
	if mirror {
		lo, hi = hi, lo
	}
	var u [3]float64
	u[axis], u[(axis+1)%3] = 0.03, 0.01
	if mirror {
		u[axis] = -u[axis]
	}
	set := func(a, b boundary.Condition) { o.FaceBC[lo], o.FaceBC[hi] = a, b }
	switch role {
	case "wrap":
		switch axis {
		case 0:
			o.PeriodicX = true
		case 1:
			o.PeriodicY = true
		default:
			o.PeriodicZ = true
		}
	case "inout":
		set(&boundary.VelocityInlet{Face: lo, Rho: 1.01, U: u}, &boundary.PressureOutlet{Face: hi, Rho: 1})
	case "nee":
		set(&boundary.NEEInlet{Face: lo, U: u}, &boundary.Outflow{Face: hi})
	case "uniform":
		set(&boundary.VelocityInlet{Face: lo, U: u}, &boundary.Outflow{Face: hi})
	case "nee-uniform":
		set(&boundary.NEEInlet{Face: lo, U: u}, &boundary.PressureOutlet{Face: hi, Rho: 0.99})
	case "free":
		set(&boundary.FreeSlip{Face: lo}, &boundary.FreeSlip{Face: hi})
	case "walls":
		set(&boundary.NoSlip{Face: lo}, &boundary.MovingNoSlip{Face: hi, U: [3]float64{u[1], u[2], u[0]}})
	default:
		panic("unknown role " + role)
	}
}

// rankFaceSets are the face-condition regimes of the rank fill test: the
// CLI's channel, the lid, all three wraps, a z closed by conditions, and
// rows of roles rotated through the axes and mirrored, so every condition
// type sits on every face.
func rankFaceSets() map[string]Options {
	sets := map[string]Options{}
	mk := func(name string, roles [3]string, mirror bool) {
		o := Options{FaceBC: map[core.Face]boundary.Condition{}}
		for axis, role := range roles {
			axisRole(&o, role, axis, mirror)
		}
		sets[name] = o
	}
	rows := [][3]string{
		{"inout", "nee", "walls"},
		{"uniform", "nee-uniform", "free"},
		{"free", "wrap", "inout"},
	}
	for _, row := range rows {
		for rot := 0; rot < 3; rot++ {
			for _, mirror := range []bool{false, true} {
				var roles [3]string
				for axis := range roles {
					roles[axis] = row[(axis+rot)%3]
				}
				mk(fmt.Sprintf("x=%s,y=%s,z=%s,mirror=%v", roles[0], roles[1], roles[2], mirror), roles, mirror)
			}
		}
	}
	mk("wraps", [3]string{"wrap", "wrap", "wrap"}, false)
	mk("z-closed", [3]string{"wrap", "wrap", "inout"}, false)
	channel := Options{PeriodicY: true, PeriodicZ: true, FaceBC: map[core.Face]boundary.Condition{
		core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{0.05, 0, 0}},
		core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
	}}
	sets["channel"] = channel
	lid := Options{FaceBC: map[core.Face]boundary.Condition{}}
	for f := core.FaceXMin; f < core.FaceZMax; f++ {
		lid.FaceBC[f] = &boundary.NoSlip{Face: f}
	}
	lid.FaceBC[core.FaceZMax] = &boundary.MovingNoSlip{Face: core.FaceZMax, U: [3]float64{0.05, 0, 0}}
	sets["lid"] = lid
	return sets
}

// parentStep is the rank step with the halo filled whole before it, the
// way every rank stepped before the fill joined the sweep: Set.Apply of
// the rank's own halo (whole wraps of the axes the rank wraps itself
// included), then the overlapped exchange of the others, and the sweeps,
// which read the halo.
func parentStep(s *Solver) {
	l, b := s.Lat, s.blk
	b.fill.Apply(l)
	b.postAxis(0, "halo")
	if r := b.inner; r.x1 > r.x0 {
		l.StepRegion(r.x0, r.x1, r.y0, r.y1)
	}
	b.collectAxis(0, "halo-x-wait")
	b.postAxis(1, "halo")
	b.collectAxis(1, "halo-y")
	for _, r := range b.strips {
		l.StepRegion(r.x0, r.x1, r.y0, r.y1)
	}
	l.CompleteStep()
}

// copyLattice deep-copies the state a step and its conditions touch.
func copyLattice(l *core.Lattice) *core.Lattice {
	c := *l
	c.F[0] = append([]float64(nil), l.F[0]...)
	c.Flags = append([]core.CellType(nil), l.Flags...)
	c.WallVel = make(map[int][3]float64, len(l.WallVel))
	for k, v := range l.WallVel {
		c.WallVel[k] = v
	}
	return &c
}

// rankStates runs opts for the largest of checks steps, stepping every
// rank with step, and returns each rank's lattice after each checked step
// count, plus each rank's block origin and solver (its own-halo fill and
// the axes it wraps itself).
func rankStates(t *testing.T, opts Options, checks []int, step func(*Solver)) (map[int][]*core.Lattice, [][3]int, []*Solver) {
	t.Helper()
	states := map[int][]*core.Lattice{}
	origins := make([][3]int, opts.PX*opts.PY)
	fills := make([]*Solver, opts.PX*opts.PY)
	for _, n := range checks {
		states[n] = make([]*core.Lattice, opts.PX*opts.PY)
	}
	err := mpi.Run(opts.PX*opts.PY, func(c *mpi.Comm) error {
		s, err := New(c, opts)
		if err != nil {
			return err
		}
		origins[c.Rank()] = [3]int{s.Block.X0, s.Block.Y0, s.Block.Z0}
		fills[c.Rank()] = s
		for n := 1; n <= checks[len(checks)-1]; n++ {
			step(s)
			if st, ok := states[n]; ok {
				st[c.Rank()] = copyLattice(s.Lat)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return states, origins, fills
}

// requireSameRank fails unless got and want hold the same population
// slots, flags and wall velocities.
func requireSameRank(t *testing.T, want, got *core.Lattice, what string) {
	t.Helper()
	if want.Step() != got.Step() {
		t.Fatalf("%s: step %d, want %d", what, got.Step(), want.Step())
	}
	for i, w := range want.F[0] {
		if g := got.F[0][i]; math.Float64bits(w) != math.Float64bits(g) {
			x, y, z := want.Coords(i % want.N)
			t.Fatalf("%s: population %d of cell (%d,%d,%d) = %v, want %v", what, i/want.N, x, y, z, g, w)
		}
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

// requireSameRankRead is requireSameRank for a rank that wraps an axis
// itself, whose sweeps read across it and whose steps leave the halo
// cells nothing reads as they are: every interior cell's populations,
// every halo cell on the inner line of a condition of the rank that
// reads one (an outlet, an NEE inlet, an outflow, a free-slip plane),
// and every cell's flag and wall velocity must agree bitwise.
func requireSameRankRead(t *testing.T, s *Solver, want, got *core.Lattice, what string) {
	t.Helper()
	read := make([]bool, want.N)
	for y := 0; y < want.NY; y++ {
		for x := 0; x < want.NX; x++ {
			for z := 0; z < want.NZ; z++ {
				read[want.Idx(x, y, z)] = true
			}
		}
	}
	o := s.Opts
	for _, c := range FaceConds(s.Block, o.GNX, o.GNY, o.GNZ, [3]bool{o.PeriodicX, o.PeriodicY, o.PeriodicZ}, o.FaceBC) {
		switch c.(type) {
		case *boundary.PressureOutlet, *boundary.NEEInlet, *boundary.Outflow, *boundary.FreeSlip:
			f := c.HaloFace()
			for j := 0; j < want.FaceLines(f); j++ {
				ln := want.FaceLine(f, 0, j)
				for k := 0; k < ln.Len; k++ {
					read[ln.Cell(k)] = true
				}
			}
		}
	}
	var fw, fg []float64
	for idx, r := range read {
		if !r {
			continue
		}
		x, y, z := want.Coords(idx)
		fw = want.Populations(x, y, z, fw)
		fg = got.Populations(x, y, z, fg)
		for i := range fw {
			if math.Float64bits(fw[i]) != math.Float64bits(fg[i]) {
				t.Fatalf("%s: cell (%d,%d,%d) population %d = %v, want %v", what, x, y, z, i, fg[i], fw[i])
			}
		}
	}
	for i, w := range want.Flags {
		if g := got.Flags[i]; g != w {
			x, y, z := want.Coords(i)
			t.Fatalf("%s: cell (%d,%d,%d) flag %v, want %v", what, x, y, z, g, w)
		}
	}
}

// requireSameInterior fails unless every fluid cell of the rank block
// holds the logical populations of the same global cell of the serial
// lattice, and every cell its flag.
func requireSameInterior(t *testing.T, serial, rank *core.Lattice, o [3]int, what string) {
	t.Helper()
	var fs, fr []float64
	for y := 0; y < rank.NY; y++ {
		for x := 0; x < rank.NX; x++ {
			for z := 0; z < rank.NZ; z++ {
				gx, gy, gz := o[0]+x, o[1]+y, o[2]+z
				ft := serial.CellTypeAt(gx, gy, gz)
				if g := rank.CellTypeAt(x, y, z); g != ft {
					t.Fatalf("%s: global cell (%d,%d,%d) flag %v, serial %v", what, gx, gy, gz, g, ft)
				}
				if ft != core.Fluid {
					continue
				}
				fs = serial.Populations(gx, gy, gz, fs)
				fr = rank.Populations(x, y, z, fr)
				for i := range fs {
					if math.Float64bits(fs[i]) != math.Float64bits(fr[i]) {
						t.Fatalf("%s: global cell (%d,%d,%d) population %d = %v, serial %v", what, gx, gy, gz, i, fr[i], fs[i])
					}
				}
			}
		}
	}
}

// TestRankFacesMatchApplyThenStep is TestPoolFacesMatchApplyThenStep for
// ranks: a rank step that fills its own next halo (the z wrap and the
// face conditions) inside its sweeps is exactly the step that fills it
// whole first. After the reference ranks have filled their halo for the
// coming step too, every rank's population slots, flags and wall
// velocities must agree bitwise with theirs, and every fluid cell with
// the serial lattice stepped by Set.Apply then StepFused — after 1, 2, 7
// and 8 steps. The grids put edge and x-interior ranks under every
// regime, split y, cut a wall box across rank boundaries and give one
// block more than the sweep's 64-cell x chunk.
func TestRankFacesMatchApplyThenStep(t *testing.T) {
	grids := []struct{ gnx, gny, gnz, px, py int }{
		{12, 10, 5, 2, 1},
		{9, 12, 4, 1, 2},
		{15, 9, 6, 3, 1},
		{10, 10, 5, 2, 2},
		{134, 8, 4, 2, 1},
	}
	checks := []int{1, 2, 7, 8}
	init := func(gx, gy, gz int) (rho, ux, uy, uz float64) {
		h := func(k int) float64 { return math.Sin(float64(gx*k+3*gy+7*gz*k) + 0.1*float64(k)) }
		return 1 + 0.05*h(1), 0.02 * h(2), 0.02 * h(3), 0.02 * h(4)
	}
	for name, base := range rankFaceSets() {
		for _, g := range grids {
			opts := base
			opts.GNX, opts.GNY, opts.GNZ, opts.PX, opts.PY = g.gnx, g.gny, g.gnz, g.px, g.py
			opts.Tau, opts.Init = 0.7, init
			// A box on the middle of the domain, across every cut, clear
			// of the global faces the conditions read.
			opts.Walls = func(gx, gy, gz int) bool {
				return gx >= g.gnx/2-2 && gx <= g.gnx/2+1 && gy >= 2 && gy <= g.gny-3 && gz >= 1 && gz <= g.gnz-2
			}
			what := fmt.Sprintf("%s on %d×%d×%d over %dx%d", name, g.gnx, g.gny, g.gnz, g.px, g.py)
			got, origins, _ := rankStates(t, opts, checks, (*Solver).Step)
			want, _, fills := rankStates(t, opts, checks, parentStep)

			box := decomp.Block{NX: g.gnx, NY: g.gny, NZ: g.gnz}
			serial, err := core.BuildLattice(&lattice.D3Q19, core.Box(box), opts.Tau, opts.Walls, opts.Init)
			if err != nil {
				t.Fatal(err)
			}
			serial.EnableAA()
			whole := FaceConds(box, g.gnx, g.gny, g.gnz,
				[3]bool{opts.PeriodicX, opts.PeriodicY, opts.PeriodicZ}, opts.FaceBC)
			set := HaloSet(opts.PeriodicX, opts.PeriodicY, opts.PeriodicZ, whole)
			for n := 1; n <= checks[len(checks)-1]; n++ {
				set.Apply(serial)
				serial.StepFused()
				if want[n] == nil {
					continue
				}
				for r := range want[n] {
					at := fmt.Sprintf("%s, rank %d after %d steps", what, r, n)
					ref := copyLattice(want[n][r])
					fills[r].blk.fill.Apply(ref)
					if fills[r].blk.wrap != (core.Wrap{}) {
						requireSameRankRead(t, fills[r], ref, copyLattice(got[n][r]), at)
					} else {
						requireSameRank(t, ref, got[n][r], at)
					}
					requireSameInterior(t, serial, got[n][r], origins[r], at)
				}
			}
		}
	}
}
