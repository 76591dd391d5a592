package patch_test

import (
	"math"
	"testing"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/conform"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/patch"
	"sunwaylb/internal/psolve"
)

// shearInit is the deterministic non-trivial initial state the bitwise
// tests share: a gentle three-axis shear, safely subsonic.
func shearInit(gx, gy, gz int) (rho, ux, uy, uz float64) {
	return 1.0 + 0.01*math.Sin(0.3*float64(gx)),
		0.03 * math.Sin(0.2*float64(gy)),
		0.02 * math.Cos(0.25*float64(gz)),
		0.01 * math.Sin(0.15*float64(gx+gy))
}

// boxOptions is a fully periodic shear box over the given tiling.
func boxOptions(tx, ty, tz int, workers []patch.Worker) patch.Options {
	return patch.Options{
		GNX: 12, GNY: 10, GNZ: 8,
		TX: tx, TY: ty, TZ: tz,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Init:    shearInit,
		Workers: workers,
	}
}

// serialRef runs the same case on one serial lattice with the canonical
// per-step phase order (z wrap, face conditions, x wrap, y wrap, fused
// kernel) — the bit-identity reference every distributed path matches.
func serialRef(t *testing.T, opt patch.Options, steps int) *core.MacroField {
	t.Helper()
	l, err := core.NewLattice(&lattice.D3Q19, opt.GNX, opt.GNY, opt.GNZ, opt.Tau)
	if err != nil {
		t.Fatal(err)
	}
	l.Smagorinsky = opt.Smagorinsky
	l.Force = opt.Force
	for y := 0; y < opt.GNY; y++ {
		for x := 0; x < opt.GNX; x++ {
			for z := 0; z < opt.GNZ; z++ {
				if opt.Walls != nil && opt.Walls(x, y, z) {
					l.SetWall(x, y, z)
				}
			}
		}
	}
	init := opt.Init
	if init == nil {
		init = func(_, _, _ int) (float64, float64, float64, float64) { return 1, 0, 0, 0 }
	}
	for y := 0; y < opt.GNY; y++ {
		for x := 0; x < opt.GNX; x++ {
			for z := 0; z < opt.GNZ; z++ {
				if l.CellTypeAt(x, y, z) != core.Fluid {
					continue
				}
				rho, ux, uy, uz := init(x, y, z)
				l.SetCell(x, y, z, rho, ux, uy, uz)
			}
		}
	}
	faces := []core.Face{core.FaceXMin, core.FaceXMax, core.FaceYMin,
		core.FaceYMax, core.FaceZMin, core.FaceZMax}
	for s := 0; s < steps; s++ {
		if opt.PeriodicZ {
			l.PeriodicAxis(2)
		}
		for _, f := range faces {
			if opt.FaceBC[f] != nil {
				boundary.ApplyWhole(opt.FaceBC[f], l)
			}
		}
		if opt.PeriodicX {
			l.PeriodicAxis(0)
		}
		if opt.PeriodicY {
			l.PeriodicAxis(1)
		}
		l.StepFused()
	}
	return l.ComputeMacro()
}

func workers(n int) []patch.Worker { return make([]patch.Worker, n) }

func TestTilingCoverAndAdjacency(t *testing.T) {
	cases := [][6]int{
		{12, 10, 8, 3, 2, 2},
		{13, 11, 9, 4, 3, 2},
		{8, 8, 8, 1, 1, 1},
		{17, 5, 6, 5, 1, 3},
	}
	for _, c := range cases {
		til, err := patch.NewTiling(c[0], c[1], c[2], c[3], c[4], c[5])
		if err != nil {
			t.Fatalf("NewTiling(%v): %v", c, err)
		}
		blocks := make([]decomp.Block, 0, til.P())
		for _, p := range til.Patches {
			blocks = append(blocks, p.Block)
		}
		if err := decomp.Cover(blocks, c[0], c[1], c[2]); err != nil {
			t.Errorf("tiling %v does not cover: %v", c, err)
		}
		for _, per := range []bool{false, true} {
			for _, p := range til.Patches {
				for axis := 0; axis < 3; axis++ {
					for _, dir := range []int{-1, +1} {
						nb := til.Neighbor(p.ID, axis, dir, per)
						if nb < 0 {
							continue
						}
						back := til.Neighbor(nb, axis, -dir, per)
						if back != p.ID {
							t.Fatalf("tiling %v: Neighbor(%d,%d,%+d)=%d but Neighbor back=%d",
								c, p.ID, axis, dir, nb, back)
						}
					}
				}
			}
		}
	}
	if _, err := patch.NewTiling(12, 10, 3, 1, 1, 2); err == nil {
		t.Error("NewTiling accepted a 1-cell-thin cut axis")
	}
}

// TestRunMatchesSerial: the patch world must be bit-identical (MaxULP=0)
// to the serial kernel for any tiling and any worker count, including
// workers that own nothing.
func TestRunMatchesSerial(t *testing.T) {
	const steps = 8
	ref := serialRef(t, boxOptions(1, 1, 1, workers(1)), steps)
	for _, tc := range []struct {
		name       string
		tx, ty, tz int
		w          int
	}{
		{"1x1x1-1w", 1, 1, 1, 1},
		{"2x1x1-2w", 2, 1, 1, 2},
		{"3x2x1-2w", 3, 2, 1, 2},
		{"2x2x2-3w", 2, 2, 2, 3},
		{"3x2x2-5w", 3, 2, 2, 5},
		{"1x1x1-3w", 1, 1, 1, 3}, // more workers than patches
	} {
		opt := boxOptions(tc.tx, tc.ty, tc.tz, workers(tc.w))
		got, _, err := patch.Run(opt, steps)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := conform.Compare(ref, got, conform.Exact); err != nil {
			t.Errorf("%s diverged from serial: %v", tc.name, err)
		}
	}
}

// TestRunWithWallsAndBCs: a lid-driven box (moving lid, no-slip walls,
// an interior pillar) exercises wall flags crossing patch halos and
// global-face conditions applying only on edge patches.
func TestRunWithWallsAndBCs(t *testing.T) {
	const steps = 6
	opt := patch.Options{
		GNX: 12, GNY: 10, GNZ: 6,
		Tau:  0.65,
		Init: shearInit,
		Walls: func(gx, gy, gz int) bool {
			return gx >= 5 && gx <= 6 && gy >= 4 && gy <= 5 && gz >= 2 && gz <= 3
		},
		FaceBC: map[core.Face]boundary.Condition{
			core.FaceXMin: &boundary.NoSlip{Face: core.FaceXMin},
			core.FaceXMax: &boundary.NoSlip{Face: core.FaceXMax},
			core.FaceYMin: &boundary.NoSlip{Face: core.FaceYMin},
			core.FaceYMax: &boundary.MovingNoSlip{Face: core.FaceYMax, U: [3]float64{0.05, 0, 0}},
		},
		PeriodicZ: true,
	}
	ref := serialRef(t, opt, steps)
	for _, tiles := range [][3]int{{2, 2, 1}, {3, 1, 2}} {
		opt.TX, opt.TY, opt.TZ = tiles[0], tiles[1], tiles[2]
		opt.Workers = workers(2)
		got, _, err := patch.Run(opt, steps)
		if err != nil {
			t.Fatalf("tiles %v: %v", tiles, err)
		}
		if err := conform.Compare(ref, got, conform.Exact); err != nil {
			t.Errorf("tiles %v diverged from serial: %v", tiles, err)
		}
	}
}

// matchesRanks holds the patch world on o to one rank bitwise after an
// odd and an even number of steps: the patch world runs each patch
// through the block step a psolve rank runs on its one block.
func matchesRanks(t *testing.T, name string, o patch.Options) {
	t.Helper()
	o.Tau, o.Init = 0.7, shearInit
	for _, steps := range []int{5, 6} {
		ref, err := psolve.Run(psolve.Options{
			GNX: o.GNX, GNY: o.GNY, GNZ: o.GNZ, PX: 1, PY: 1,
			Tau:       o.Tau,
			PeriodicX: o.PeriodicX, PeriodicY: o.PeriodicY, PeriodicZ: o.PeriodicZ,
			FaceBC: o.FaceBC,
			Walls:  o.Walls,
			Init:   o.Init,
		}, steps)
		if err != nil {
			t.Fatalf("%s, one rank: %v", name, err)
		}
		got, stats, err := patch.Run(o, steps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.ForceMigrateEvery > 0 && stats.Migrations == 0 {
			t.Errorf("%s: no patch moved", name)
		}
		if err := conform.Compare(ref, got, conform.Exact); err != nil {
			t.Errorf("%s after %d steps: patch world diverged from one rank: %v", name, steps, err)
		}
	}
}

// TestPeriodicAxisFaceBCMatchesRanks: when FaceBC names a face of a
// periodic axis, the patch world drops that condition exactly as the rank
// world does (both choose through psolve.FaceConds), so a z-cut patch run
// matches one rank bitwise instead of overwriting the z halo a link fills.
func TestPeriodicAxisFaceBCMatchesRanks(t *testing.T) {
	matchesRanks(t, "periodic-axis-facebc", patch.Options{
		GNX: 8, GNY: 8, GNZ: 6, TX: 2, TZ: 2,
		PeriodicY: true, PeriodicZ: true,
		FaceBC: map[core.Face]boundary.Condition{
			core.FaceXMin: &boundary.NoSlip{Face: core.FaceXMin},
			core.FaceXMax: &boundary.NoSlip{Face: core.FaceXMax},
			core.FaceZMin: &boundary.NoSlip{Face: core.FaceZMin},
		},
		Workers: workers(2),
	})
}

// TestZProfileInletMatchesRanks: the urban preset's shape — an inlet
// whose profile varies along z, an outlet, a no-slip floor, a free-slip
// lid, y periodic — on patches cut along z matches one rank bitwise: each
// patch's inlet hands its profile global coordinates, not the patch's.
func TestZProfileInletMatchesRanks(t *testing.T) {
	matchesRanks(t, "z-profile-inlet", patch.Options{
		GNX: 8, GNY: 6, GNZ: 8, TZ: 2,
		PeriodicY: true,
		FaceBC: map[core.Face]boundary.Condition{
			core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, Profile: func(x, y, z int) [3]float64 {
				return [3]float64{0.08 * float64(z+1) / 8, 0, 0}
			}},
			core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
			core.FaceZMin: &boundary.NoSlip{Face: core.FaceZMin},
			core.FaceZMax: &boundary.FreeSlip{Face: core.FaceZMax},
		},
		Workers: workers(2),
	})
}

// TestPatchMatchesRanks: what the shared block step has to get right
// beyond the two cases above, each held to one rank by matchesRanks:
//   - channel-1w and channel-2w: inlet and outlet on x, y and z periodic,
//     cut along x, every face between the patches a same-owner copy on
//     one worker and a link on two;
//   - x-wrap: an x axis each patch wraps itself (TX=1, periodic x) over
//     a y cut;
//   - migrate-every-step: every patch moves after every step, so every
//     installed patch starts from its first whole fill.
func TestPatchMatchesRanks(t *testing.T) {
	channel := map[core.Face]boundary.Condition{
		core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{0.05, 0, 0}},
		core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
	}
	pillar := func(gx, gy, gz int) bool { return gx >= 5 && gx <= 6 && gy >= 3 && gy <= 6 && gz >= 1 && gz <= 3 }
	for _, c := range []struct {
		name string
		o    patch.Options
	}{
		{"channel-1w", patch.Options{
			GNX: 12, GNY: 10, GNZ: 6, TX: 2,
			PeriodicY: true, PeriodicZ: true, FaceBC: channel, Walls: pillar,
			Workers: workers(1),
		}},
		{"channel-2w", patch.Options{
			GNX: 12, GNY: 10, GNZ: 6, TX: 2,
			PeriodicY: true, PeriodicZ: true, FaceBC: channel, Walls: pillar,
			Workers: workers(2),
		}},
		{"x-wrap", patch.Options{
			GNX: 10, GNY: 10, GNZ: 6, TY: 2,
			PeriodicX: true, PeriodicZ: true,
			FaceBC: map[core.Face]boundary.Condition{
				core.FaceYMin: &boundary.NoSlip{Face: core.FaceYMin},
				core.FaceYMax: &boundary.MovingNoSlip{Face: core.FaceYMax, U: [3]float64{0.05, 0, 0}},
			},
			Walls:   pillar,
			Workers: workers(2),
		}},
		{"migrate-every-step", patch.Options{
			GNX: 12, GNY: 10, GNZ: 6, TX: 2, TY: 2,
			PeriodicY: true, PeriodicZ: true, FaceBC: channel, Walls: pillar,
			Workers: workers(3), ForceMigrateEvery: 1,
		}},
	} {
		matchesRanks(t, c.name, c.o)
	}
}

// TestFitTiles: a fitted tiling is one NewTiling accepts, and a count
// that already fits passes through.
func TestFitTiles(t *testing.T) {
	for _, c := range []struct{ t, n, want int }{
		{2, 12, 2}, {4, 5, 2}, {3, 3, 1}, {2, 1, 1}, {0, 8, 1},
	} {
		got := patch.FitTiles(c.t, c.n)
		if got != c.want {
			t.Errorf("FitTiles(%d, %d) = %d, want %d", c.t, c.n, got, c.want)
		}
		if _, err := patch.NewTiling(c.n, 4, 4, got, 1, 1); err != nil {
			t.Errorf("FitTiles(%d, %d) = %d: %v", c.t, c.n, got, err)
		}
	}
}

// TestMigrationBitIdentity: with ForceMigrateEvery=1 every patch hops to
// the next worker after every step; the result must still be bitwise
// equal to the serial reference — the core guarantee that lets the
// balancer move patches freely.
func TestMigrationBitIdentity(t *testing.T) {
	const steps = 7
	ref := serialRef(t, boxOptions(1, 1, 1, workers(1)), steps)
	opt := boxOptions(3, 2, 1, workers(3))
	opt.ForceMigrateEvery = 1
	got, stats, err := patch.Run(opt, steps)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Migrations == 0 {
		t.Fatal("forced rotation produced no migrations")
	}
	if err := conform.Compare(ref, got, conform.Exact); err != nil {
		t.Errorf("migrated run diverged from serial (after %d migrations): %v",
			stats.Migrations, err)
	}
}

// TestBalancerRebalancesStraggler: a deterministic cost model makes
// worker 1 ten times slower per cell; the balancer must move patches off
// it and the measured imbalance ratio must drop.
func TestBalancerRebalancesStraggler(t *testing.T) {
	const steps = 16
	ref := serialRef(t, boxOptions(1, 1, 1, workers(1)), steps)
	opt := boxOptions(3, 2, 1, workers(3))
	opt.RebalanceEvery = 3
	opt.CostModel = func(worker int, p patch.Patch) float64 {
		spc := [3]float64{1, 10, 1}[worker]
		return spc * float64(p.Cells()) * 1e-8
	}
	got, stats, err := patch.Run(opt, steps)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Migrations == 0 {
		t.Fatalf("balancer never migrated despite a 10x straggler: %+v", stats)
	}
	if stats.ImbalancePost >= stats.ImbalancePre {
		t.Errorf("imbalance did not improve: pre=%.3f post=%.3f", stats.ImbalancePre, stats.ImbalancePost)
	}
	if err := conform.Compare(ref, got, conform.Exact); err != nil {
		t.Errorf("rebalanced run diverged from serial: %v", err)
	}
}

// TestMixedBackendsMatchSerial: core, swlb and gpu workers stitched in
// one world must agree bitwise with the serial kernel, migrations
// included. (The conform matrix covers this across random cases; this is
// the fast in-package guard.)
func TestMixedBackendsMatchSerial(t *testing.T) {
	const steps = 5
	ref := serialRef(t, boxOptions(1, 1, 1, workers(1)), steps)
	ws := []patch.Worker{
		{Backend: patch.BackendCore},
		{Backend: patch.BackendSunway},
		{Backend: patch.BackendGPU},
	}
	opt := boxOptions(3, 2, 1, ws)
	opt.ForceMigrateEvery = 2
	got, _, err := patch.Run(opt, steps)
	if err != nil {
		t.Fatal(err)
	}
	if err := conform.Compare(ref, got, conform.Exact); err != nil {
		t.Errorf("mixed-backend run diverged from serial: %v", err)
	}
}

func TestParseWorkers(t *testing.T) {
	ws, err := patch.ParseWorkers("core, sunway*1.5 ,gpu,core*8")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("got %d workers, want 4", len(ws))
	}
	if ws[0].Backend != patch.BackendCore || ws[1].Backend != patch.BackendSunway ||
		ws[2].Backend != patch.BackendGPU || ws[3].Backend != patch.BackendCore {
		t.Errorf("backends wrong: %+v", ws)
	}
	if ws[1].Straggle != 1.5 || ws[3].Straggle != 8 {
		t.Errorf("straggle factors wrong: %+v", ws)
	}
	if _, err := patch.ParseWorkers("quantum"); err == nil {
		t.Error("accepted unknown backend")
	}
	if _, err := patch.ParseWorkers(""); err == nil {
		t.Error("accepted empty roster")
	}
}
