package psolve

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"sunwaylb/internal/fault"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/resil"
)

// TestSupervisorHotSwapBuddy is the headline severity-aware recovery
// scenario: one injected death per parity group, repaired from L2 buddy
// copies and spare ranks. The run must finish with zero disk rollbacks,
// zero shrinks, and a final field bit-identical to the fault-free
// reference.
func TestSupervisorHotSwapBuddy(t *testing.T) {
	opts := chaosBase()
	opts.PX, opts.PY = 2, 2
	const steps = 30

	ref, err := Run(opts, steps)
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}

	// Groups of 2 over 4 ranks: {0,1} and {2,3}. Rank 1 and rank 2 die
	// in the same step — one death per group, the worst case the memory
	// hierarchy must still repair in one plan.
	plan, err := fault.ParsePlan("seed=3;crash@rank=1,step=13;crash@rank=2,step=13")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(plan)
	got, stats, err := Supervise(SupervisorOptions{
		Opts:          opts,
		Steps:         steps,
		SnapshotEvery: 2,
		Levels:        resil.L1 | resil.L2 | resil.L3,
		GroupSize:     2,
		SpareRanks:    2,
		MaxRestarts:   2,
		Injector:      inj,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (stats: %s)", err, stats)
	}
	if n, worst := fieldsEqual(ref, got); n != 0 {
		t.Fatalf("hot-swapped run differs from fault-free reference in %d values (worst %g)", n, worst)
	}
	if stats.HotSwaps != 1 || stats.DiskRollbacks != 0 {
		t.Errorf("hot-swaps=%d disk-rollbacks=%d, want 1/0", stats.HotSwaps, stats.DiskRollbacks)
	}
	if stats.Shrinks != 0 {
		t.Errorf("shrinks = %d, want 0 (hot swap preserves world size)", stats.Shrinks)
	}
	if stats.SparesUsed != 2 {
		t.Errorf("spares used = %d, want 2", stats.SparesUsed)
	}
	if stats.BuddyRestores != 2 || stats.Reconstructions != 0 {
		t.Errorf("restores: buddy=%d parity=%d, want 2/0 (both buddies alive)",
			stats.BuddyRestores, stats.Reconstructions)
	}
	// Crash before step 14; the latest complete wave is at step 12, so
	// at most a couple of steps replay.
	if stats.LostSteps > 2*2 {
		t.Errorf("lost steps = %d, want ≤ 4 with SnapshotEvery=2", stats.LostSteps)
	}
	if stats.MTTR() <= 0 {
		t.Errorf("MTTR = %v, want > 0 after a repair", stats.MTTR())
	}
	// Pairs with L1 and L2 keep both members' records: no replica. L1
	// also holds the reseeded recovery.
	b := stats.SnapshotBytes
	if b[1] == 0 || b[0] <= b[1] || b[2] != 0 {
		t.Errorf("snapshot byte ledger %v: want L1 beyond L2 > 0 and no L3 in groups of two", b)
	}
	if b[3] != 0 {
		t.Errorf("disk bytes = %d, want 0 (no L4 in this run)", b[3])
	}
}

// TestSupervisorHotSwapParity forces the L3 algebra: without L2 buddy
// copies, a dead block can only come back as parity ⊕ survivors.
func TestSupervisorHotSwapParity(t *testing.T) {
	opts := chaosBase()
	opts.PX, opts.PY = 2, 2
	const steps = 24

	ref, err := Run(opts, steps)
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}
	inj := fault.NewInjector(fault.Plan{Seed: 5, Crashes: []fault.Crash{{Rank: 2, Step: 11}}})
	got, stats, err := Supervise(SupervisorOptions{
		Opts:          opts,
		Steps:         steps,
		SnapshotEvery: 3,
		Levels:        resil.L1 | resil.L3, // no buddy copies: parity or bust
		GroupSize:     4,
		SpareRanks:    1,
		MaxRestarts:   1,
		Injector:      inj,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (stats: %s)", err, stats)
	}
	if n, worst := fieldsEqual(ref, got); n != 0 {
		t.Fatalf("parity-recovered run differs in %d values (worst %g)", n, worst)
	}
	if stats.HotSwaps != 1 || stats.DiskRollbacks != 0 {
		t.Errorf("hot-swaps=%d disk-rollbacks=%d, want 1/0", stats.HotSwaps, stats.DiskRollbacks)
	}
	if stats.Reconstructions != 1 || stats.BuddyRestores != 0 {
		t.Errorf("restores: buddy=%d parity=%d, want 0/1", stats.BuddyRestores, stats.Reconstructions)
	}
}

// TestSupervisorMultiLossEscalates: two deaths inside one parity group
// leave the XOR equation with two unknowns — the memory hierarchy must
// refuse, and the supervisor must fall back to the L4 disk checkpoint
// and still converge to the exact reference.
func TestSupervisorMultiLossEscalates(t *testing.T) {
	opts := chaosBase()
	opts.PX, opts.PY = 2, 2
	const steps = 30

	ref, err := Run(opts, steps)
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}
	// Both members of group {0,1} die together (via the group DSL).
	plan, err := fault.ParsePlan("seed=11;crash@group=0,count=2,step=13")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(plan)
	path := filepath.Join(t.TempDir(), "escalate.cpk")
	got, stats, err := Supervise(SupervisorOptions{
		Opts:            opts,
		Steps:           steps,
		SnapshotEvery:   2,
		Levels:          resil.L1 | resil.L2 | resil.L3 | resil.L4,
		GroupSize:       2,
		SpareRanks:      4,
		CheckpointEvery: 5,
		CheckpointPath:  path,
		MaxRestarts:     2,
		Injector:        inj,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (stats: %s)", err, stats)
	}
	if n, worst := fieldsEqual(ref, got); n != 0 {
		t.Fatalf("escalated recovery differs in %d values (worst %g)", n, worst)
	}
	if stats.DiskRollbacks != 1 || stats.HotSwaps != 0 {
		t.Errorf("disk-rollbacks=%d hot-swaps=%d, want 1/0 (multi-loss in one group)",
			stats.DiskRollbacks, stats.HotSwaps)
	}
	if fs := inj.Stats(); fs.Crashes != 2 {
		t.Errorf("injector crashes = %d, want 2 (group expansion)", fs.Crashes)
	}
	if stats.SnapshotBytes[3] == 0 {
		t.Errorf("disk byte ledger empty despite L4 checkpoints")
	}
}

// TestSupervisorSpareBudgetExhausted: deaths beyond the spare budget
// cannot hot-swap even when the algebra could repair them.
func TestSupervisorSpareBudgetExhausted(t *testing.T) {
	opts := chaosBase()
	opts.PX, opts.PY = 2, 2
	const steps = 20
	inj := fault.NewInjector(fault.Plan{Seed: 2, Crashes: []fault.Crash{
		{Rank: 1, Step: 9}, {Rank: 2, Step: 9},
	}})
	path := filepath.Join(t.TempDir(), "budget.cpk")
	_, stats, err := Supervise(SupervisorOptions{
		Opts:            opts,
		Steps:           steps,
		SnapshotEvery:   2,
		Levels:          resil.L1 | resil.L2 | resil.L3 | resil.L4,
		GroupSize:       2,
		SpareRanks:      1, // two deaths, one spare
		CheckpointEvery: 4,
		CheckpointPath:  path,
		MaxRestarts:     1,
		Injector:        inj,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (stats: %s)", err, stats)
	}
	if stats.HotSwaps != 0 || stats.DiskRollbacks != 1 {
		t.Errorf("hot-swaps=%d disk-rollbacks=%d, want 0/1 (spare budget exceeded)",
			stats.HotSwaps, stats.DiskRollbacks)
	}
	if stats.SparesUsed != 0 {
		t.Errorf("spares used = %d, want 0", stats.SparesUsed)
	}
}

// TestSupervisorPhiToleratesStragglers is the detector acceptance test:
// a rank that is 4× slower on the wall clock but keeps heartbeating must
// never be declared dead by the phi detector — the run completes with
// zero restarts where a tight fixed deadline (below) fails.
func TestSupervisorPhiToleratesStragglers(t *testing.T) {
	opts := chaosBase()
	opts.PX, opts.PY = 2, 2
	const steps = 12
	mkInj := func() *fault.Injector {
		return fault.NewInjector(fault.Plan{
			Seed:       1,
			Stragglers: []fault.Straggler{{Rank: 1, Factor: 4}},
		})
	}

	ref, err := Run(opts, steps)
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}

	got, stats, err := Supervise(SupervisorOptions{
		Opts:               opts,
		Steps:              steps,
		SnapshotEvery:      3,
		Levels:             resil.L1 | resil.L2 | resil.L3,
		GroupSize:          2,
		MaxRestarts:        0, // any false suspicion fails the run outright
		Injector:           mkInj(),
		Detector:           "phi",
		StragglerWallDelay: 10 * time.Millisecond,
		Logf:               t.Logf,
	})
	if err != nil {
		t.Fatalf("phi detector falsely killed a straggling run: %v (stats: %s)", err, stats)
	}
	if stats.Restarts != 0 {
		t.Errorf("restarts = %d, want 0 (no false suspicion)", stats.Restarts)
	}
	if n, worst := fieldsEqual(ref, got); n != 0 {
		t.Fatalf("straggling run differs in %d values (worst %g)", n, worst)
	}

	// The same scenario under a fixed deadline shorter than the
	// straggler's step time: the deadline detector cannot tell slow from
	// dead and the run must fail — the weakness phi exists to fix.
	_, _, err = Supervise(SupervisorOptions{
		Opts:               opts,
		Steps:              steps,
		MaxRestarts:        0,
		Injector:           mkInj(),
		RecvTimeout:        10 * time.Millisecond,
		StragglerWallDelay: 10 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("fixed 10ms deadline should have killed the 30ms-per-step straggler")
	}
	if !errors.Is(err, mpi.ErrTimeout) {
		t.Errorf("deadline failure should wrap ErrTimeout, got: %v", err)
	}
}

// TestChaosMatrix drives the CI chaos tier: a matrix of failure shapes
// through the full hierarchy, each asserting convergence and the
// expected recovery class. All scenarios must reproduce the fault-free
// field bit-exactly.
func TestChaosMatrix(t *testing.T) {
	base := chaosBase()
	base.PX, base.PY = 2, 2
	const steps = 24

	ref, err := Run(base, steps)
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}

	cases := []struct {
		name      string
		plan      string
		detector  string
		wallStrag time.Duration
		wantHot   int // -1 = don't care
		wantDisk  int
	}{
		{
			name:    "single-crash-hot-swap",
			plan:    "seed=21;crash@rank=3,step=11",
			wantHot: 1, wantDisk: 0,
		},
		{
			name:    "one-per-group-multi-kill",
			plan:    "seed=22;crash@rank=0,step=9;crash@rank=3,step=9",
			wantHot: 1, wantDisk: 0,
		},
		{
			name:    "group-wipe-escalates",
			plan:    "seed=23;crash@group=1,count=2,step=11",
			wantHot: 0, wantDisk: 1,
		},
		{
			name:    "crash-plus-corrupt-ckpt",
			plan:    "seed=24;crash@rank=1,step=13;corrupt@ckpt=2",
			wantHot: 1, wantDisk: 0,
		},
		{
			name:      "flap-under-phi",
			plan:      "seed=25;straggle@rank=1,x=4;flap@rank=1,step=6,len=40",
			detector:  "phi",
			wallStrag: 10 * time.Millisecond,
			wantHot:   -1, wantDisk: 0,
		},
		{
			name:    "sequential-crashes",
			plan:    "seed=26;crash@rank=1,step=7;crash@rank=2,step=15",
			wantHot: 2, wantDisk: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := fault.ParsePlan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			inj := fault.NewInjector(plan)
			path := filepath.Join(t.TempDir(), "chaos.cpk")
			got, stats, err := Supervise(SupervisorOptions{
				Opts:               base,
				Steps:              steps,
				SnapshotEvery:      2,
				Levels:             resil.L1 | resil.L2 | resil.L3 | resil.L4,
				GroupSize:          2,
				SpareRanks:         4,
				CheckpointEvery:    5,
				CheckpointPath:     path,
				MaxRestarts:        3,
				Injector:           inj,
				Detector:           tc.detector,
				StragglerWallDelay: tc.wallStrag,
				Logf:               t.Logf,
			})
			if err != nil {
				t.Fatalf("supervised run failed: %v (stats: %s)", err, stats)
			}
			if n, worst := fieldsEqual(ref, got); n != 0 {
				t.Fatalf("recovered run differs from reference in %d values (worst %g)", n, worst)
			}
			if tc.wantHot >= 0 && stats.HotSwaps != tc.wantHot {
				t.Errorf("hot swaps = %d, want %d (stats: %s)", stats.HotSwaps, tc.wantHot, stats)
			}
			if stats.DiskRollbacks != tc.wantDisk {
				t.Errorf("disk rollbacks = %d, want %d (stats: %s)", stats.DiskRollbacks, tc.wantDisk, stats)
			}
		})
	}
}

// TestSupervisorSnapshotCadence: the byte ledger must grow linearly with
// the wave count — the overhead story of the hierarchy (L1+L2 deposit per
// wave, L3 one block per replica folding g − 2 members, nothing on disk
// unless L4 fires). In groups of two a replica would fold nothing, so
// there is none; in a group of four each folds two equal blocks.
func TestSupervisorSnapshotCadence(t *testing.T) {
	opts := chaosBase()
	opts.PX, opts.PY = 2, 2
	const steps = 12
	for _, group := range []int{2, 4} {
		_, stats, err := Supervise(SupervisorOptions{
			Opts:          opts,
			Steps:         steps,
			SnapshotEvery: 2,
			Levels:        resil.L1 | resil.L2 | resil.L3,
			GroupSize:     group,
			MaxRestarts:   0,
			Logf:          t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Waves at steps 2,4,6,8,10 (never at the final step): 5 waves × 4
		// ranks deposit the same payload at L1 and L2, and at L3 beyond a pair.
		b := stats.SnapshotBytes
		wantL3 := b[0]
		if group == 2 {
			wantL3 = 0
		}
		if b[0] != 5*4*9*7*8*19*8+5*4*9*7*8 || b[1] != b[0] || b[2] != wantL3 {
			t.Errorf("group of %d: ledger %v, want L1 = L2 = 5 waves × 4 ranks × one 9×7×8 block, L3 %d", group, b, wantL3)
		}
		if b[3] != 0 {
			t.Errorf("group of %d: no disk writes expected, ledger says %d", group, b[3])
		}
	}
}
