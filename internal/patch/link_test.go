package patch

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"sunwaylb/internal/alloctest"
	"sunwaylb/internal/core"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/resil"
)

// haloSteps is odd so the runs end on the odd AA phase.
const haloSteps = 9

// patch2 is the smallest world whose halo crosses workers: two patches
// along x, periodic, on two workers — every face between them is a link.
func patch2(t *testing.T) (*Options, *Tiling) {
	t.Helper()
	opt := &Options{
		GNX: 12, GNY: 10, GNZ: 8, TX: 2,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Walls: func(gx, gy, gz int) bool { return gx == 6 && gy == 5 && gz >= 2 && gz <= 5 },
		Init: func(gx, gy, gz int) (rho, ux, uy, uz float64) {
			return 1 + 0.01*float64(gx%5), 0.02 * float64(gy%3), 0.01 * float64(gz%4), 0
		},
		Workers: make([]Worker, 2),
	}
	if err := opt.normalize(); err != nil {
		t.Fatal(err)
	}
	til, err := NewTiling(opt.GNX, opt.GNY, opt.GNZ, opt.TX, opt.TY, opt.TZ)
	if err != nil {
		t.Fatal(err)
	}
	return opt, til
}

// stepWorld steps w without a supervisor on a world whose transport runs
// hook (nil: none), with a snapshot wave of the given levels into st
// after every step but the last when st is set, and returns the gathered
// field or the world's failure cause.
func stepWorld(w *World, steps int, hook mpi.FaultHook, st *resil.Store, levels resil.Levels) (*core.MacroField, error) {
	mw, err := mpi.NewWorld(w.Ranks())
	if err != nil {
		return nil, err
	}
	if hook != nil {
		mw.SetFaultHook(hook)
	}
	var out *core.MacroField
	err = mpi.RunWorld(mw, func(c *mpi.Comm) error {
		n, err := newNode(w, c, nil, steps, 1)
		if err != nil {
			return err
		}
		for n.step < steps {
			n.Step()
			if st != nil && n.step < steps {
				if err := n.ResilCapture(st, levels); err != nil {
					return err
				}
			}
		}
		if g := n.GatherMacro(0); g != nil {
			out = g
		}
		return nil
	})
	if err != nil && mw.FailureCause() != nil {
		err = mw.FailureCause()
	}
	return out, err
}

// patch2World is the patch2 case as a world.
func patch2World(t *testing.T) *World {
	t.Helper()
	opt, _ := patch2(t)
	w, err := NewWorld(*opt)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// faultedRun steps patch2 without a supervisor on a world whose transport
// runs the plan's link faults, and returns the gathered field or the
// world's failure cause.
func faultedRun(t *testing.T, plan fault.Plan) (*core.MacroField, error) {
	return stepWorld(patch2World(t), haloSteps, fault.NewInjector(plan), nil, 0)
}

func cleanPatch2(t *testing.T) *core.MacroField {
	t.Helper()
	opt, _ := patch2(t)
	want, _, err := Run(*opt, haloSteps)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// sameField reports the first value in which two fields differ bitwise.
func sameField(a, b *core.MacroField) error {
	for c, pair := range [4][2][]float64{{a.Rho, b.Rho}, {a.Ux, b.Ux}, {a.Uy, b.Uy}, {a.Uz, b.Uz}} {
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				return fmt.Errorf("channel %d, cell %d: %v != %v", c, i, pair[0][i], pair[1][i])
			}
		}
	}
	return nil
}

// TestHaloDuplicateDiscarded: a duplicated halo face must be discarded by
// its step stamp, not unpacked as the next step's face.
func TestHaloDuplicateDiscarded(t *testing.T) {
	want := cleanPatch2(t)
	for _, dup := range []fault.Link{{Src: 1, Dst: 0, Dup: 1, Max: 1}, {Src: -1, Dst: -1, Dup: 0.5, Max: 6}} {
		got, err := faultedRun(t, fault.Plan{Seed: 2, Links: []fault.Link{dup}})
		if err != nil {
			t.Fatalf("dup %+v: %v", dup, err)
		}
		if err := sameField(want, got); err != nil {
			t.Errorf("dup %+v: %v", dup, err)
		}
	}
}

// TestHaloFlipFailsTyped: a bit flipped in a halo face fails the worker
// with psolve.ErrHaloCorrupt, and the supervisor's restart ends bit-exact
// at full size. With snapshot waves on, the flip is a fault of the link,
// not of a worker: the world resumes from the latest wave in memory.
func TestHaloFlipFailsTyped(t *testing.T) {
	want := cleanPatch2(t)
	for _, seed := range []int64{1, 3, 5, 7} {
		plan := fault.Plan{Seed: seed, Links: []fault.Link{{Src: -1, Dst: -1, Flip: 1, Max: 1}}}
		if _, err := faultedRun(t, plan); !errors.Is(err, psolve.ErrHaloCorrupt) {
			t.Errorf("seed %d: unsupervised run returned %v, want ErrHaloCorrupt", seed, err)
		}
		w := patch2World(t)
		got, stats, err := psolve.SuperviseOn(w, psolve.SupervisorOptions{Steps: haloSteps, MaxRestarts: 1,
			Injector: fault.NewInjector(plan)})
		if err != nil {
			t.Fatalf("seed %d: supervised run: %v", seed, err)
		}
		if stats.Restarts != 1 {
			t.Errorf("seed %d: %d restarts, want 1", seed, stats.Restarts)
		}
		if w.Stats().Workers != 2 {
			t.Errorf("seed %d: the restart ran on %d workers, want 2", seed, w.Stats().Workers)
		}
		if err := sameField(want, got); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	for _, seed := range lateFlipSeeds {
		w := patch2World(t)
		got, stats, err := psolve.SuperviseOn(w, psolve.SupervisorOptions{Steps: haloSteps, MaxRestarts: 1,
			SnapshotEvery: 2, Levels: resil.L1 | resil.L2 | resil.L3, GroupSize: 2,
			Injector: fault.NewInjector(lateFlip(seed))})
		if err != nil {
			t.Fatalf("waves, seed %d: supervised run: %v", seed, err)
		}
		if stats.Restarts != 1 || stats.DiskRollbacks != 0 {
			t.Errorf("waves, seed %d: %s, want one restart from memory", seed, stats)
		}
		if err := sameField(want, got); err != nil {
			t.Errorf("waves, seed %d: %v", seed, err)
		}
	}
}

// TestMain records every allocation, so the allocation checks count this
// module's own (alloctest).
func TestMain(m *testing.M) { alloctest.Main(m) }

// TestRankStepAllocFree: once every link has sent its first message, a
// patch-world step allocates nothing: on patch2, where the faces between
// the patches are links, and on one worker owning a 2x2x1 tiling, where
// every face between patches is a same-owner copy. One P, for the reason
// psolve's TestRankStepAllocFree gives.
func TestRankStepAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	links, _ := patch2(t)
	copies := *links
	copies.TX, copies.TY, copies.Workers = 2, 2, make([]Worker, 1)
	for _, c := range []struct {
		name string
		opt  Options
	}{{"patch2", *links}, {"2x2x1 on one worker", copies}} {
		w, err := NewWorld(c.opt)
		if err != nil {
			t.Fatal(err)
		}
		var mark alloctest.Mark
		var allocs, b int64
		err = mpi.Run(w.Ranks(), func(comm *mpi.Comm) error {
			n, err := newNode(w, comm, nil, 16, 1)
			if err != nil {
				return err
			}
			for i := 0; i < 4; i++ {
				n.Step()
			}
			comm.Barrier()
			if comm.Rank() == 0 {
				mark = alloctest.Take()
			}
			comm.Barrier()
			for i := 0; i < 10; i++ {
				n.Step()
			}
			comm.Barrier()
			if comm.Rank() == 0 {
				allocs, b = mark.Since()
			}
			comm.Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("10 steps of %s allocated %d times (%d B), want 0", c.name, allocs, b)
		}
	}
}

// lateFlipSeeds seed lateFlip plans whose flip lands on a halo face, and
// fails its checksum, after the first wave of a patch2 run with snapshot
// waves every 2 steps.
var lateFlipSeeds = []int64{2, 3, 6, 12}

// lateFlip flips one bit of one message on the link from worker 0 to
// worker 1, at a message the seed picks.
func lateFlip(seed int64) fault.Plan {
	return fault.Plan{Seed: seed, Links: []fault.Link{{Src: 0, Dst: 1, Flip: 0.1, Max: 1}}}
}
