package patch

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"sunwaylb/internal/core"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/psolve"
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

// faultedRun steps patch2 without a supervisor on a world whose transport
// runs the plan's link faults, and returns the gathered field or the
// world's failure cause.
func faultedRun(t *testing.T, plan fault.Plan) (*core.MacroField, error) {
	opt, til := patch2(t)
	var w *mpi.World
	out, err := runAttempt(&runConfig{opt: opt, til: til, steps: haloSteps,
		owner: initialOwner(til.P(), 2), inj: fault.NewInjector(plan)}, func(world *mpi.World) { w = world })
	if err != nil && w.FailureCause() != nil {
		err = w.FailureCause()
	}
	return out, err
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
// with psolve.ErrHaloCorrupt, and the supervisor's restart ends bit-exact.
func TestHaloFlipFailsTyped(t *testing.T) {
	want := cleanPatch2(t)
	for _, seed := range []int64{1, 3, 5, 7} {
		plan := fault.Plan{Seed: seed, Links: []fault.Link{{Src: -1, Dst: -1, Flip: 1, Max: 1}}}
		if _, err := faultedRun(t, plan); !errors.Is(err, psolve.ErrHaloCorrupt) {
			t.Errorf("seed %d: unsupervised run returned %v, want ErrHaloCorrupt", seed, err)
		}
		opt, _ := patch2(t)
		got, stats, err := Supervise(SupervisorOptions{Opts: *opt, Steps: haloSteps, MaxRestarts: 1,
			SnapshotEvery: haloSteps, Injector: fault.NewInjector(plan)})
		if err != nil {
			t.Fatalf("seed %d: supervised run: %v", seed, err)
		}
		if stats.Restarts != 1 {
			t.Errorf("seed %d: %d restarts, want 1", seed, stats.Restarts)
		}
		if err := sameField(want, got); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestRankStepAllocFree: once every link has sent its first message, a
// patch-world step allocates nothing. One P, for the reason psolve's
// TestRankStepAllocFree gives.
func TestRankStepAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opt, til := patch2(t)
	rc := &runConfig{opt: opt, til: til, steps: 16, owner: initialOwner(til.P(), 2)}
	var before, after runtime.MemStats
	err := mpi.Run(2, func(c *mpi.Comm) error {
		n, err := newNode(rc, c)
		if err != nil {
			return err
		}
		measure := func(ms *runtime.MemStats) {
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(ms)
			}
			c.Barrier()
		}
		for i := 0; i < 4; i++ {
			n.stepOnce()
		}
		measure(&before)
		for i := 0; i < 10; i++ {
			n.stepOnce()
		}
		measure(&after)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n != 0 {
		t.Errorf("10 steps of a patch2 world allocated %d times (%d B), want 0", n, b)
	}
}
