package psolve

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"sunwaylb/internal/core"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/leaktest"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/swio"
)

// chaosBase is the shared physical problem for the supervisor tests:
// fully periodic with an obstacle crossing rank boundaries, matching the
// checkpoint tests.
func chaosBase() Options {
	return Options{
		GNX: 18, GNY: 14, GNZ: 8,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Walls: func(gx, gy, gz int) bool { return gx == 9 && gy == 7 && gz >= 2 && gz <= 5 },
		Init:  shearInit,
	}
}

// TestSupervisorRecovers is the acceptance chaos scenario: a fixed-seed
// fault plan kills rank 3 mid-run and corrupts the second checkpoint
// file. The supervisor must detect both — the corruption at write
// verification (keeping the step-5 rollback target), the crash via the
// typed mpi errors — restore from the last verified-good checkpoint,
// finish the run, and produce a final field bit-identical to a
// fault-free reference (deterministic step replay).
func TestSupervisorRecovers(t *testing.T) {
	opts := chaosBase()
	opts.PX, opts.PY = 2, 2
	const steps = 30

	ref, err := Run(opts, steps)
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}

	plan, err := fault.ParsePlan("seed=42;crash@rank=3,step=13;corrupt@ckpt=2")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(plan)
	path := filepath.Join(t.TempDir(), "chaos.cpk")
	got, stats, err := Supervise(SupervisorOptions{
		Opts:            opts,
		Steps:           steps,
		CheckpointEvery: 5,
		CheckpointPath:  path,
		MaxRestarts:     2,
		Injector:        inj,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (stats: %s)", err, stats)
	}
	if got == nil {
		t.Fatal("supervised run returned no field")
	}
	if n, worst := fieldsEqual(ref, got); n != 0 {
		t.Fatalf("supervised run differs from fault-free reference in %d values (worst %g)", n, worst)
	}

	if stats.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", stats.Restarts)
	}
	if stats.CheckpointsRejected < 1 {
		t.Errorf("checkpoints rejected = %d, want ≥ 1 (injected corruption)", stats.CheckpointsRejected)
	}
	// Crash at step 13 rolls back to the step-5 checkpoint (the step-10
	// one was corrupted): 8 steps of lost progress.
	if stats.LostSteps != 8 {
		t.Errorf("lost steps = %d, want 8", stats.LostSteps)
	}
	fs := inj.Stats()
	if fs.Crashes != 1 || fs.CkptsCorrupted != 1 {
		t.Errorf("injector fired crashes=%d ckpts=%d, want 1/1", fs.Crashes, fs.CkptsCorrupted)
	}
}

// TestSupervisorShrinkingRecovery: after a rank death with AllowShrink,
// the run re-decomposes onto fewer ranks and still reproduces the
// fault-free result exactly (restart on a different process grid).
func TestSupervisorShrinkingRecovery(t *testing.T) {
	opts := chaosBase()
	opts.PX, opts.PY = 2, 2
	const steps = 20

	ref, err := Run(opts, steps)
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}

	inj := fault.NewInjector(fault.Plan{
		Seed:    7,
		Crashes: []fault.Crash{{Rank: 1, Step: 9}},
	})
	got, stats, err := Supervise(SupervisorOptions{
		Opts:            opts,
		Steps:           steps,
		CheckpointEvery: 4, // in-memory checkpoints
		MaxRestarts:     1,
		AllowShrink:     true,
		Injector:        inj,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (stats: %s)", err, stats)
	}
	if stats.Restarts != 1 || stats.Shrinks != 1 {
		t.Errorf("restarts=%d shrinks=%d, want 1/1", stats.Restarts, stats.Shrinks)
	}
	if n, worst := fieldsEqual(ref, got); n != 0 {
		t.Fatalf("shrunk recovery differs from reference in %d values (worst %g)", n, worst)
	}
}

// TestSupervisorCancelLeavesNoGoroutines: the ladder's cancel watcher
// ends with its run, whether the run completes under a context that
// stays live or is cancelled mid-run (the watcher tears the world down,
// the supervisor drains), and so does every other goroutine the run
// started.
func TestSupervisorCancelLeavesNoGoroutines(t *testing.T) {
	opts := chaosBase()
	opts.PX, opts.PY = 2, 1
	check := leaktest.Check(t)
	supervise := func(ctx context.Context, steps int) error {
		_, _, err := Supervise(SupervisorOptions{
			Ctx:            ctx,
			Opts:           opts,
			Steps:          steps,
			CheckpointPath: filepath.Join(t.TempDir(), "drain.cpk"),
			SnapshotEvery:  2,
			Levels:         resil.L1 | resil.L2 | resil.L4,
			Detector:       "phi",
			MaxRestarts:    1,
			Logf:           t.Logf,
		})
		return err
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	if err := supervise(live, 4); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	if err := supervise(ctx, 1<<30); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancelled run returned %v, want ErrCanceled", err)
	}
	check() // before stop: a watcher of the live context would outlive its run
}

// TestSupervisorCancelBeforeStart: a context that is already dead must
// stop the run at the first step boundary; with a restore seed, the
// drain preserves exactly that seed.
func TestSupervisorCancelBeforeStart(t *testing.T) {
	opts := chaosBase()
	opts.PX, opts.PY = 2, 1
	const steps = 12

	// Build a mid-run state to restore from: 6 steps, gathered on rank 0.
	var lat *core.Lattice
	if err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := New(c, opts)
		if err != nil {
			return err
		}
		for i := 0; i < 6; i++ {
			s.Step()
		}
		g, err := s.GatherLattice(0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			lat = g
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	restoreOpts := opts
	restoreOpts.Restore = lat
	path := filepath.Join(t.TempDir(), "predrain.cpk")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Supervise(SupervisorOptions{
		Ctx:            ctx,
		Opts:           restoreOpts,
		Steps:          steps,
		CheckpointPath: path,
		MaxRestarts:    1,
		Logf:           t.Logf,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled run returned %v, want ErrCanceled", err)
	}
	restored, rerr := swio.Restart(path)
	if rerr != nil {
		t.Fatalf("drain of the restore seed unreadable: %v", rerr)
	}
	if restored.Step() != 6 {
		t.Errorf("drained checkpoint at step %d, want the restore seed's step 6", restored.Step())
	}
}
