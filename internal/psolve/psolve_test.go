package psolve

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
)

// runCase executes the same physical problem with the given process grid
// and returns the gathered global field.
func runCase(t *testing.T, opts Options, px, py, steps int) *core.MacroField {
	t.Helper()
	opts.PX, opts.PY = px, py
	g, err := Run(opts, steps)
	if err != nil {
		t.Fatalf("Run(%d×%d): %v", px, py, err)
	}
	if g == nil {
		t.Fatalf("Run(%d×%d): nil gather", px, py)
	}
	return g
}

func fieldsEqual(a, b *core.MacroField) (int, float64) {
	count := 0
	worst := 0.0
	for i := range a.Rho {
		for _, d := range []float64{
			a.Rho[i] - b.Rho[i], a.Ux[i] - b.Ux[i],
			a.Uy[i] - b.Uy[i], a.Uz[i] - b.Uz[i],
		} {
			if d != 0 {
				count++
				if math.Abs(d) > worst {
					worst = math.Abs(d)
				}
			}
		}
	}
	return count, worst
}

// shearInit is a non-trivial initial condition exercising all axes.
func shearInit(gx, gy, gz int) (rho, ux, uy, uz float64) {
	return 1.0 + 0.01*math.Sin(0.3*float64(gx)),
		0.03 * math.Sin(0.2*float64(gy)),
		0.02 * math.Cos(0.25*float64(gz)),
		0.01 * math.Sin(0.15*float64(gx+gy))
}

// TestParallelMatchesSerialPeriodic: a fully periodic run decomposed
// 2×2 must be bit-identical to the single-rank run.
func TestParallelMatchesSerialPeriodic(t *testing.T) {
	opts := Options{
		GNX: 16, GNY: 16, GNZ: 8,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Init: shearInit,
	}
	serial := runCase(t, opts, 1, 1, 10)
	par := runCase(t, opts, 2, 2, 10)
	if n, worst := fieldsEqual(serial, par); n != 0 {
		t.Fatalf("parallel differs from serial in %d values (worst %g)", n, worst)
	}
}

// TestParallelMatchesSerialWithObstacle: an obstacle spanning rank
// boundaries must bounce identically.
func TestParallelMatchesSerialWithObstacle(t *testing.T) {
	wall := func(gx, gy, gz int) bool {
		// A box crossing the 2×2 rank boundary at (8,8).
		return gx >= 6 && gx <= 10 && gy >= 6 && gy <= 10 && gz >= 2 && gz <= 5
	}
	opts := Options{
		GNX: 16, GNY: 16, GNZ: 8,
		Tau:       0.8,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Init:  shearInit,
		Walls: wall,
	}
	serial := runCase(t, opts, 1, 1, 12)
	par := runCase(t, opts, 2, 2, 12)
	if n, worst := fieldsEqual(serial, par); n != 0 {
		t.Fatalf("obstacle run differs in %d values (worst %g)", n, worst)
	}
	par41 := runCase(t, opts, 4, 1, 12)
	if n, _ := fieldsEqual(serial, par41); n != 0 {
		t.Fatalf("4×1 obstacle run differs in %d values", n)
	}
}

// serialReference runs the problem on one standalone double-buffer lattice
// — no ranks, no exchange, no AA storage: z wrap, face conditions, then the
// x and y wraps that stand in for the halo exchange, then StepFused.
func serialReference(t *testing.T, o Options, steps int) *core.MacroField {
	t.Helper()
	l, err := core.NewLattice(&lattice.D3Q19, o.GNX, o.GNY, o.GNZ, o.Tau)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < o.GNY; y++ {
		for x := 0; x < o.GNX; x++ {
			for z := 0; z < o.GNZ; z++ {
				if o.Walls != nil && o.Walls(x, y, z) {
					l.SetWall(x, y, z)
				} else if o.Init != nil {
					rho, ux, uy, uz := o.Init(x, y, z)
					l.SetCell(x, y, z, rho, ux, uy, uz)
				}
			}
		}
	}
	for s := 0; s < steps; s++ {
		if o.PeriodicZ {
			l.PeriodicAxis(2)
		}
		for _, f := range []core.Face{core.FaceXMin, core.FaceXMax} {
			if bc := o.FaceBC[f]; bc != nil {
				boundary.ApplyWhole(bc, l)
			}
		}
		if o.PeriodicX {
			l.PeriodicAxis(0)
		}
		if o.PeriodicY {
			l.PeriodicAxis(1)
		}
		l.StepFused()
	}
	return l.ComputeMacro()
}

// TestOverlapMatchesSerial: AA ranks under the overlapped exchange are
// bit-identical to the single-lattice double-buffer reference (the paper's
// correctness claim for Fig. 6(2)) at odd and even step counts — over
// uneven decompositions, an obstacle straddling both cuts, open faces on
// edge ranks, and blocks too thin to have an inner region.
func TestOverlapMatchesSerial(t *testing.T) {
	periodic := Options{Tau: 0.65, PeriodicX: true, PeriodicY: true, PeriodicZ: true, Init: shearInit}
	sized := func(o Options, nx, ny, nz int) Options {
		o.GNX, o.GNY, o.GNZ = nx, ny, nz
		return o
	}
	straddle := sized(periodic, 16, 16, 8)
	straddle.Walls = func(gx, gy, gz int) bool {
		return gx >= 6 && gx <= 10 && gy >= 6 && gy <= 10 && gz >= 2 && gz <= 5
	}
	channel := sized(Options{Tau: 0.8, PeriodicY: true, PeriodicZ: true,
		FaceBC: map[core.Face]boundary.Condition{
			core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{0.04, 0, 0}},
			core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
		}}, 13, 9, 6)
	for _, tc := range []struct {
		name   string
		opts   Options
		px, py int
	}{
		{"uneven-3x2", sized(periodic, 17, 13, 5), 3, 2},
		{"obstacle-on-cuts-2x2", straddle, 2, 2},
		{"channel-3x2", channel, 3, 2},
		{"thin-x-nx2", sized(periodic, 4, 12, 6), 2, 1},
		{"thin-y-ny1", sized(periodic, 12, 3, 6), 1, 3},
	} {
		for _, steps := range []int{8, 9} {
			want := serialReference(t, tc.opts, steps)
			got := runCase(t, tc.opts, tc.px, tc.py, steps)
			if n, worst := fieldsEqual(want, got); n != 0 {
				t.Errorf("%s, %d steps: ranks differ from the serial lattice in %d values (worst %g)",
					tc.name, steps, n, worst)
			}
		}
	}
}

// TestChannelFlowAcrossRanks: inlet/outlet BCs live on edge ranks only;
// the decomposed channel must match the single-rank channel.
func TestChannelFlowAcrossRanks(t *testing.T) {
	opts := Options{
		GNX: 24, GNY: 8, GNZ: 6,
		Tau: 0.8,
		FaceBC: map[core.Face]boundary.Condition{
			core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{0.04, 0, 0}},
			core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
		},
		PeriodicY: true, PeriodicZ: true,
	}
	serial := runCase(t, opts, 1, 1, 60)
	par := runCase(t, opts, 4, 2, 60)
	if n, worst := fieldsEqual(serial, par); n != 0 {
		t.Fatalf("channel flow differs in %d values (worst %g)", n, worst)
	}
	// And the flow is actually moving.
	mid := serial.Idx(12, 4, 3)
	if serial.Ux[mid] <= 0.01 {
		t.Errorf("mid-channel Ux = %v, want > 0.01", serial.Ux[mid])
	}
}

// TestMassConservedAcrossRanks: global mass is conserved by the
// distributed update with periodic boundaries.
func TestMassConservedAcrossRanks(t *testing.T) {
	opts := Options{
		GNX: 12, GNY: 12, GNZ: 6,
		PX: 2, PY: 2,
		Tau:       0.9,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Init: shearInit,
	}
	err := mpi.Run(4, func(c *mpi.Comm) error {
		s, err := New(c, opts)
		if err != nil {
			return err
		}
		m0 := s.GlobalMass()
		for i := 0; i < 25; i++ {
			s.Step()
		}
		m1 := s.GlobalMass()
		if math.Abs(m1-m0)/m0 > 1e-12 {
			return fmt.Errorf("mass drift %v -> %v", m0, m1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := New(c, Options{GNX: 8, GNY: 8, GNZ: 4, PX: 3, PY: 1, Tau: 0.8}); err == nil {
			return fmt.Errorf("want grid-size mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaceConds: a block takes the condition of each global face it
// touches on a non-periodic axis, in XMin..ZMax order.
func TestFaceConds(t *testing.T) {
	fb := map[core.Face]boundary.Condition{}
	for f := core.FaceXMin; f <= core.FaceZMax; f++ {
		fb[f] = &boundary.NoSlip{Face: f}
	}
	faces := func(b decomp.Block, periodic [3]bool) []core.Face {
		var out []core.Face
		for _, c := range FaceConds(b, 8, 6, 4, periodic, fb) {
			out = append(out, c.(*boundary.NoSlip).Face)
		}
		return out
	}
	whole := decomp.Block{NX: 8, NY: 6, NZ: 4}
	if got := faces(whole, [3]bool{}); !slices.Equal(got, []core.Face{core.FaceXMin,
		core.FaceXMax, core.FaceYMin, core.FaceYMax, core.FaceZMin, core.FaceZMax}) {
		t.Errorf("whole lattice: %v", got)
	}
	if got := faces(whole, [3]bool{false, true, true}); !slices.Equal(got,
		[]core.Face{core.FaceXMin, core.FaceXMax}) {
		t.Errorf("periodic y, z: %v", got)
	}
	corner := decomp.Block{X0: 4, NX: 4, NY: 3, Z0: 2, NZ: 2}
	if got := faces(corner, [3]bool{}); !slices.Equal(got,
		[]core.Face{core.FaceXMax, core.FaceYMin, core.FaceZMax}) {
		t.Errorf("corner block: %v", got)
	}

	// A profiled inlet off the origin is a copy reading global
	// coordinates; an unprofiled one, or one at the origin, is the
	// condition itself.
	plain := &boundary.VelocityInlet{Face: core.FaceYMin}
	profiled := &boundary.NEEInlet{Face: core.FaceYMin, Profile: func(x, y, z int) [3]float64 {
		return [3]float64{float64(x), float64(y), float64(z)}
	}}
	for _, c := range []boundary.Condition{plain, profiled} {
		in := map[core.Face]boundary.Condition{core.FaceYMin: c}
		if got := FaceConds(whole, 8, 6, 4, [3]bool{}, in)[0]; got != c {
			t.Errorf("%s at the origin: a copy", c.Name())
		}
		got := FaceConds(corner, 8, 6, 4, [3]bool{}, in)[0]
		if c == plain && got != c {
			t.Errorf("unprofiled inlet off the origin: a copy")
		}
		if c == profiled {
			if u := got.(*boundary.NEEInlet).Profile(1, 0, 1); u != [3]float64{5, 0, 3} {
				t.Errorf("profiled inlet at (4,0,2): block cell (1,0,1) reads %v, want global (5,0,3)", u)
			}
		}
	}
}

// TestUnevenDecomposition: global sizes that do not divide evenly still
// reproduce the serial result.
func TestUnevenDecomposition(t *testing.T) {
	opts := Options{
		GNX: 17, GNY: 13, GNZ: 5,
		Tau:       0.75,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Init: shearInit,
	}
	serial := runCase(t, opts, 1, 1, 8)
	par := runCase(t, opts, 3, 2, 8)
	if n, worst := fieldsEqual(serial, par); n != 0 {
		t.Fatalf("uneven run differs in %d values (worst %g)", n, worst)
	}
}

func BenchmarkDistributedStep4Ranks(b *testing.B) {
	opts := Options{
		GNX: 32, GNY: 32, GNZ: 16,
		PX: 2, PY: 2,
		Tau:       0.8,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
	}
	b.ResetTimer()
	err := mpi.Run(4, func(c *mpi.Comm) error {
		s, err := New(c, opts)
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
