package psolve_test

// The recovery ladder's tests run on both decompositions it drives. They
// live outside package psolve because internal/patch imports it.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sunwaylb/internal/core"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/patch"
	"sunwaylb/internal/perf"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/swio"
)

// ladderWorlds are the inputs of the ladder tests: the box on a 2x1 rank
// grid, as two patches on two workers, and on one rank.
var ladderWorlds = []string{"2x1", "patch2", "local"}

type initFunc = func(gx, gy, gz int) (rho, ux, uy, uz float64)

func shear(gx, gy, gz int) (rho, ux, uy, uz float64) {
	return 1.0 + 0.01*math.Sin(0.3*float64(gx)),
		0.03 * math.Sin(0.2*float64(gy)),
		0.02 * math.Cos(0.25*float64(gz)),
		0.01 * math.Sin(0.15*float64(gx+gy))
}

// boxWalls is the box's obstacle, crossing the block boundaries.
func boxWalls(gx, gy, gz int) bool { return gx == 9 && gy == 7 && gz >= 2 && gz <= 5 }

// boxOptions is the fully periodic box with its obstacle on a px×py grid.
func boxOptions(px, py int, init initFunc) psolve.Options {
	return psolve.Options{
		GNX: 18, GNY: 14, GNZ: 8, PX: px, PY: py,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Walls: boxWalls, Init: init,
	}
}

// superviseBox runs the box under o on the named decomposition: a PXxPY
// rank grid, "patch2" or "local" (the one-rank world, whose final lattice
// gives the field); init, when set, replaces the shear initial state.
func superviseBox(t *testing.T, decomp string, o psolve.SupervisorOptions, init initFunc) (*core.MacroField, perf.RecoveryStats, error) {
	t.Helper()
	if init == nil {
		init = shear
	}
	var px, py int
	if _, err := fmt.Sscanf(decomp, "%dx%d", &px, &py); err == nil {
		o.Opts = boxOptions(px, py, init)
		return psolve.Supervise(o)
	}
	if decomp == "local" {
		w := psolve.NewLocal(boxOptions(1, 1, init))
		_, stats, err := psolve.SuperviseOn(w, o)
		if err != nil {
			return nil, stats, err
		}
		return w.Lattice().ComputeMacro(), stats, nil
	}
	w, err := patch.NewWorld(patch.Options{
		GNX: 18, GNY: 14, GNZ: 8, TX: 2,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Walls: boxWalls, Init: init,
		Workers: make([]patch.Worker, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	return psolve.SuperviseOn(w, o)
}

// TestSupervisorHealthGate: a supersonic initial condition diverges; the
// health gate must refuse to checkpoint it and the run must fail once the
// restart budget is spent — never writing a garbage rollback target.
func TestSupervisorHealthGate(t *testing.T) {
	for _, decomp := range ladderWorlds {
		t.Run(decomp, func(t *testing.T) {
			_, stats, err := superviseBox(t, decomp, psolve.SupervisorOptions{
				Steps:           10,
				CheckpointEvery: 2,
				MaxRestarts:     1,
				Logf:            t.Logf,
			}, func(gx, gy, gz int) (float64, float64, float64, float64) {
				return 1, 0.9, 0, 0 // far above the lattice sound speed
			})
			if err == nil {
				t.Fatal("diverged run must exhaust the restart budget and fail")
			}
			if !strings.Contains(err.Error(), "health gate") {
				t.Errorf("error should carry the health-gate cause, got: %v", err)
			}
			if stats.CheckpointsWritten != 0 {
				t.Errorf("%d diverged checkpoints were accepted", stats.CheckpointsWritten)
			}
			if stats.CheckpointsRejected < 1 {
				t.Errorf("health gate rejected %d checkpoints, want ≥ 1", stats.CheckpointsRejected)
			}
		})
	}
}

// strongShear is a shear far from rest: ρ 1 ± 0.5 and |u| up to 0.3.
func strongShear(gx, gy, gz int) (rho, ux, uy, uz float64) {
	return 1 + 0.5*math.Sin(2*math.Pi*float64(gx)/16),
		0.2 * math.Sin(2*math.Pi*float64(gy)/16),
		0.2 * math.Cos(2*math.Pi*float64(gz)/8),
		0.1 * math.Sin(2*math.Pi*float64(gx+gy)/16)
}

// TestDivergedRunFailsTyped: the 16×16×8 periodic box at τ 0.50001 from
// a strong shear goes non-finite well inside 2000 steps. A run of it must
// fail with ErrDiverged, at once — instability is not a lost worker, so
// the restart budget stays unspent — and return no field. Before the
// final-field check it returned err == nil with every ρ NaN. The one-rank
// world keeps its lattice instead of gathering a field, and fails from one
// pass over that lattice.
func TestDivergedRunFailsTyped(t *testing.T) {
	opts := psolve.Options{
		GNX: 16, GNY: 16, GNZ: 8,
		Tau:       0.50001,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Init: strongShear,
	}
	o := psolve.SupervisorOptions{Steps: 2000, MaxRestarts: 2}
	for _, decomp := range []string{"2x1", "patch2", "local"} {
		t.Run(decomp, func(t *testing.T) {
			var field *core.MacroField
			var stats perf.RecoveryStats
			var err error
			switch decomp {
			case "2x1":
				o.Opts = opts
				o.Opts.PX, o.Opts.PY = 2, 1
				field, stats, err = psolve.Supervise(o)
			case "local":
				o.Opts = psolve.Options{}
				field, stats, err = psolve.SuperviseOn(psolve.NewLocal(opts), o)
			default:
				w, werr := patch.NewWorld(patch.Options{
					GNX: opts.GNX, GNY: opts.GNY, GNZ: opts.GNZ, TX: 2,
					Tau:       opts.Tau,
					PeriodicX: true, PeriodicY: true, PeriodicZ: true,
					Init:    opts.Init,
					Workers: make([]patch.Worker, 2),
				})
				if werr != nil {
					t.Fatal(werr)
				}
				o.Opts = psolve.Options{}
				field, stats, err = psolve.SuperviseOn(w, o)
			}
			if !errors.Is(err, psolve.ErrDiverged) {
				t.Fatalf("diverging run returned %v, want ErrDiverged", err)
			}
			if field != nil {
				t.Error("a diverged run returned a field")
			}
			if stats.Restarts != 0 {
				t.Errorf("a diverged run was retried: %s", stats)
			}
		})
	}
}

// TestSupervisorCancelDrains: cancelling the run's context mid-flight
// must stop the run with ErrCanceled — not a restart, not a hang — and
// drain the newest recoverable state into the L4 checkpoint file so the
// job can be resumed later.
func TestSupervisorCancelDrains(t *testing.T) {
	for _, decomp := range []string{"2x2", "patch2", "local"} {
		t.Run(decomp, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "drain.cpk")
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				// Let the run make some progress (and snapshot waves land),
				// then pull the plug. The exact cut point doesn't matter:
				// drain correctness is asserted structurally below.
				time.Sleep(60 * time.Millisecond)
				cancel()
				close(done)
			}()
			_, stats, err := superviseBox(t, decomp, psolve.SupervisorOptions{
				Ctx:             ctx,
				Steps:           1_000_000, // far more than fits in the cancel window
				SnapshotEvery:   2,
				Levels:          resil.L1 | resil.L2 | resil.L3 | resil.L4,
				CheckpointEvery: 50,
				CheckpointPath:  path,
				MaxRestarts:     3,
				Logf:            t.Logf,
			}, nil)
			<-done
			if !errors.Is(err, psolve.ErrCanceled) {
				t.Fatalf("canceled run returned %v, want ErrCanceled", err)
			}
			if stats.Restarts != 0 {
				t.Errorf("cancellation consumed %d restarts; drain must not retry", stats.Restarts)
			}
			if stats.CheckpointsWritten >= 1 {
				// A drain checkpoint was published: it must be a valid,
				// resumable L4 state (CRC-verified read-back, step within
				// the run).
				restored, rerr := swio.Restart(path)
				if rerr != nil {
					t.Fatalf("drain checkpoint unreadable: %v", rerr)
				}
				if restored.Step() <= 0 || restored.Step() > 1_000_000 {
					t.Errorf("drain checkpoint at impossible step %d", restored.Step())
				}
			}
		})
	}
}

// TestSupervisorContainsPanics: in bulkhead mode a panic inside solver
// setup becomes a contained failure of that run — the error wraps
// mpi.ErrRankPanic and the hosting process (this test) survives.
func TestSupervisorContainsPanics(t *testing.T) {
	for _, decomp := range ladderWorlds {
		t.Run(decomp, func(t *testing.T) {
			_, _, err := superviseBox(t, decomp, psolve.SupervisorOptions{
				Steps:         5,
				ContainPanics: true,
			}, func(gx, gy, gz int) (float64, float64, float64, float64) {
				if gx == 3 && gy == 2 && gz == 1 {
					panic("tenant bug: init exploded")
				}
				return 1, 0, 0, 0
			})
			if err == nil {
				t.Fatal("panicking run must fail")
			}
			if !errors.Is(err, mpi.ErrRankPanic) {
				t.Errorf("contained panic should wrap mpi.ErrRankPanic, got: %v", err)
			}
		})
	}
}

// TestSupervisorRestartBudget: a crash with no checkpoints and a zero
// restart budget must surface the injected-crash cause.
func TestSupervisorRestartBudget(t *testing.T) {
	for _, decomp := range ladderWorlds {
		t.Run(decomp, func(t *testing.T) {
			inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Rank: 0, Step: 3}}})
			_, stats, err := superviseBox(t, decomp, psolve.SupervisorOptions{
				Steps:    10,
				Injector: inj,
			}, nil)
			if err == nil {
				t.Fatal("want failure with MaxRestarts=0")
			}
			if !errors.Is(err, fault.ErrInjectedCrash) {
				t.Errorf("error should wrap the injected crash, got: %v", err)
			}
			if stats.Restarts != 0 {
				t.Errorf("restarts = %d, want 0", stats.Restarts)
			}
		})
	}
}

// TestSupervisorCheckpointCadence: L4 fires on every CheckpointEvery-th
// step whatever the wave cadence, and every world writes the same
// checkpoint — the gather of every block, health-gated and read back.
func TestSupervisorCheckpointCadence(t *testing.T) {
	var files []*core.Lattice
	for _, decomp := range ladderWorlds {
		path := filepath.Join(t.TempDir(), decomp+".cpk")
		_, stats, err := superviseBox(t, decomp, psolve.SupervisorOptions{
			Steps:           5,
			CheckpointEvery: 3,
			CheckpointPath:  path,
			SnapshotEvery:   2,
			Levels:          resil.L1 | resil.L2 | resil.L3 | resil.L4,
			GroupSize:       2,
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", decomp, err)
		}
		if stats.CheckpointsWritten != 1 || stats.SnapshotWaves != 2 {
			t.Errorf("%s: %d checkpoints after %d waves, want 1 after 2", decomp, stats.CheckpointsWritten, stats.SnapshotWaves)
		}
		lat, err := swio.Restart(path)
		if err != nil {
			t.Fatalf("%s: %v", decomp, err)
		}
		if lat.Step() != 3 {
			t.Errorf("%s: checkpoint at step %d, want 3", decomp, lat.Step())
		}
		files = append(files, lat)
	}
	a := files[0]
	for k, b := range files[1:] {
		fa, fb := a.Src(), b.Src()
		for i := range fa {
			if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
				t.Fatalf("population word %d: ranks wrote %v, %s %v", i, fa[i], ladderWorlds[k+1], fb[i])
			}
		}
		for i := range a.Flags {
			if a.Flags[i] != b.Flags[i] {
				t.Fatalf("flag %d: ranks wrote %d, %s %d", i, a.Flags[i], ladderWorlds[k+1], b.Flags[i])
			}
		}
	}
}

// TestLocalWorld: the one-rank world ends bit-identical to the rank world
// at both step parities, and resumes from a restore seed — its own final
// lattice at an odd step — without writing to it.
func TestLocalWorld(t *testing.T) {
	same := func(what string, want, got *core.MacroField) {
		t.Helper()
		for i := range want.Rho {
			if want.Rho[i] != got.Rho[i] || want.Ux[i] != got.Ux[i] || want.Uy[i] != got.Uy[i] || want.Uz[i] != got.Uz[i] {
				t.Fatalf("%s: cell %d differs from the rank world", what, i)
			}
		}
	}
	for _, steps := range []int{7, 8} {
		want, _, err := superviseBox(t, "2x1", psolve.SupervisorOptions{Steps: steps}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := superviseBox(t, "local", psolve.SupervisorOptions{Steps: steps}, nil)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("%d steps", steps), want, got)
	}

	first := psolve.NewLocal(boxOptions(1, 1, shear))
	if _, _, err := psolve.SuperviseOn(first, psolve.SupervisorOptions{Steps: 3}); err != nil {
		t.Fatal(err)
	}
	seed := first.Lattice()
	before := append([]float64(nil), seed.Src()...)
	resumed := psolve.NewLocal(boxOptions(1, 1, shear))
	o := psolve.SupervisorOptions{Steps: 8}
	o.Opts.Restore = seed
	if _, _, err := psolve.SuperviseOn(resumed, o); err != nil {
		t.Fatal(err)
	}
	want, _, err := superviseBox(t, "2x1", psolve.SupervisorOptions{Steps: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	same("resumed at step 3", want, resumed.Lattice().ComputeMacro())
	for i, v := range seed.Src() {
		if math.Float64bits(v) != math.Float64bits(before[i]) {
			t.Fatalf("the restore seed changed at word %d", i)
		}
	}
}

// TestSupervisorShrinksPatchWorld: an escalated worker death under
// AllowShrink drops that worker and deals the patches over the rest; the
// run still ends bit-identical to a fault-free rank run.
func TestSupervisorShrinksPatchWorld(t *testing.T) {
	const steps = 12
	want, _, err := superviseBox(t, "2x1", psolve.SupervisorOptions{Steps: steps}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := patch.NewWorld(patch.Options{
		GNX: 18, GNY: 14, GNZ: 8, TX: 3, TY: 2,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Walls:   func(gx, gy, gz int) bool { return gx == 9 && gy == 7 && gz >= 2 && gz <= 5 },
		Init:    shear,
		Workers: make([]patch.Worker, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := psolve.SuperviseOn(w, psolve.SupervisorOptions{
		Steps:           steps,
		CheckpointEvery: 4,
		MaxRestarts:     1,
		AllowShrink:     true,
		Injector:        fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Rank: 1, Step: 6}}}),
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (stats: %s)", err, stats)
	}
	if stats.DiskRollbacks != 1 || stats.Shrinks != 1 || w.Stats().Workers != 2 {
		t.Errorf("%s on %d workers, want one shrinking rollback onto 2", stats, w.Stats().Workers)
	}
	for i := range want.Rho {
		if want.Rho[i] != got.Rho[i] || want.Ux[i] != got.Ux[i] || want.Uy[i] != got.Uy[i] || want.Uz[i] != got.Uz[i] {
			t.Fatalf("cell %d differs from the fault-free rank run", i)
		}
	}
}
