package psolve

import (
	"errors"
	"runtime"
	"testing"

	"sunwaylb/internal/alloctest"
	"sunwaylb/internal/core"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/resil"
)

// haloSteps is odd so the runs below end on the odd AA phase, where a
// wrong halo shows in the layout as well as in the values.
const haloSteps = 9

// faultedRun steps opts on a world whose transport runs the plan's link
// faults, without a supervisor, and returns the gathered field or the
// world's failure cause.
func faultedRun(opts Options, plan fault.Plan) (*core.MacroField, error) {
	w, err := mpi.NewWorld(opts.PX * opts.PY)
	if err != nil {
		return nil, err
	}
	w.SetFaultHook(fault.NewInjector(plan))
	var out *core.MacroField
	err = mpi.RunWorld(w, func(c *mpi.Comm) error {
		s, err := New(c, opts)
		if err != nil {
			return err
		}
		for i := 0; i < haloSteps; i++ {
			s.Step()
		}
		if g := s.GatherMacro(0); g != nil {
			out = g
		}
		return nil
	})
	if err != nil && w.FailureCause() != nil {
		err = w.FailureCause()
	}
	return out, err
}

func haloOptions() Options {
	opts := chaosBase()
	opts.PX, opts.PY = 2, 1
	return opts
}

// TestHaloDuplicateDiscarded: a duplicated halo face stays queued behind
// the original; the next step must discard it by its step stamp instead
// of unpacking it as its own face. At the parent the run completed
// cleanly with a wrong field.
func TestHaloDuplicateDiscarded(t *testing.T) {
	opts := haloOptions()
	want := runCase(t, opts, 2, 1, haloSteps)
	for _, dup := range []fault.Link{{Src: 1, Dst: 0, Dup: 1, Max: 1}, {Src: -1, Dst: -1, Dup: 0.5, Max: 6}} {
		plan := fault.Plan{Seed: 2, Links: []fault.Link{dup}}
		got, err := faultedRun(opts, plan)
		if err != nil {
			t.Fatalf("%v: %v", dup, err)
		}
		if n, worst := fieldsEqual(want, got); n != 0 {
			t.Errorf("dup %+v: %d values differ from the fault-free run (worst %g)", dup, n, worst)
		}
	}
}

// TestHaloFlipFailsTyped: a bit flipped in a halo face fails the
// receiving rank with ErrHaloCorrupt instead of stepping on a silently
// wrong halo, and a supervised run restarts and ends bit-exact. Seeds
// 1/3/5/7 flip bits that left the parent's images unchanged, so the
// check is on the gathered field. With snapshot waves on, the flip is a
// fault of the link, not of a rank: the world resumes from the latest
// wave in memory, never from disk.
func TestHaloFlipFailsTyped(t *testing.T) {
	opts := haloOptions()
	want := runCase(t, opts, 2, 1, haloSteps)
	for _, seed := range []int64{1, 3, 5, 7} {
		plan := fault.Plan{Seed: seed, Links: []fault.Link{{Src: -1, Dst: -1, Flip: 1, Max: 1}}}
		if _, err := faultedRun(opts, plan); !errors.Is(err, ErrHaloCorrupt) {
			t.Errorf("seed %d: unsupervised run returned %v, want ErrHaloCorrupt", seed, err)
		}
		got, stats, err := Supervise(SupervisorOptions{Opts: opts, Steps: haloSteps, MaxRestarts: 1,
			Injector: fault.NewInjector(plan)})
		if err != nil {
			t.Fatalf("seed %d: supervised run: %v", seed, err)
		}
		if stats.Restarts != 1 {
			t.Errorf("seed %d: %d restarts, want 1", seed, stats.Restarts)
		}
		if n, worst := fieldsEqual(want, got); n != 0 {
			t.Errorf("seed %d: %d values differ from the fault-free run (worst %g)", seed, n, worst)
		}
	}
	for _, seed := range lateFlipSeeds {
		got, stats, err := Supervise(SupervisorOptions{Opts: opts, Steps: haloSteps, MaxRestarts: 1,
			SnapshotEvery: 2, Levels: resil.L1 | resil.L2 | resil.L3, GroupSize: 2,
			Injector: fault.NewInjector(lateFlip(seed))})
		if err != nil {
			t.Fatalf("waves, seed %d: supervised run: %v", seed, err)
		}
		if stats.Restarts != 1 || stats.DiskRollbacks != 0 {
			t.Errorf("waves, seed %d: %s, want one restart from memory", seed, stats)
		}
		if n, worst := fieldsEqual(want, got); n != 0 {
			t.Errorf("waves, seed %d: %d values differ from the fault-free run (worst %g)", seed, n, worst)
		}
	}
}

// lateFlipSeeds seed lateFlip plans whose flip lands on a halo face, and
// fails its checksum, after the first wave of a 2x1 run with snapshot
// waves every 2 steps.
var lateFlipSeeds = []int64{2, 3, 6, 12}

// lateFlip flips one bit of one message on the link from rank 0 to rank
// 1, at a message the seed picks.
func lateFlip(seed int64) fault.Plan {
	return fault.Plan{Seed: seed, Links: []fault.Link{{Src: 0, Dst: 1, Flip: 0.1, Max: 1}}}
}

// TestMain records every allocation, so the allocation checks count this
// module's own (alloctest).
func TestMain(m *testing.M) { alloctest.Main(m) }

// TestRankStepAllocFree: once every link has sent its first message, a
// rank step allocates nothing — the faces pack into the links' slots,
// the receiver unpacks from the message, and the transport reuses its
// ring and waiter channel. The world runs on one P, as the benchmark's
// CLI children do: with more, the runtime's own per-P caches (the sudog
// a blocked receive parks on) keep filling for a while as goroutines
// migrate, which is not this code allocating.
func TestRankStepAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mark alloctest.Mark
	var n, b int64
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := New(c, haloOptions())
		if err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			s.Step()
		}
		c.Barrier()
		if c.Rank() == 0 {
			mark = alloctest.Take()
		}
		c.Barrier()
		for i := 0; i < 10; i++ {
			s.Step()
		}
		c.Barrier()
		if c.Rank() == 0 {
			n, b = mark.Since()
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("10 steps of a 2x1 world allocated %d times (%d B), want 0", n, b)
	}
}
