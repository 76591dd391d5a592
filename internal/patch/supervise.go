package patch

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/swio"
)

// ErrCanceled marks a supervised patch run stopped through its context.
var ErrCanceled = errors.New("patch: run canceled")

// SupervisorOptions extends Options with the resilience policy of a
// supervised patch run. The checkpoint hierarchy is the same L1–L4
// stack psolve rides, keyed by patch instead of rank: L1/L2/L3 deposits
// live in the store under patch IDs, and L4 assembles the latest
// complete wave into a global on-disk checkpoint.
type SupervisorOptions struct {
	Opts  Options
	Steps int

	// SnapshotEvery runs a snapshot wave every N completed steps
	// (default 5). Levels selects the active levels (zero = L1|L2|L3).
	// GroupSize is the parity-group size over patch IDs (default 2).
	SnapshotEvery int
	Levels        resil.Levels
	GroupSize     int

	// CheckpointEvery writes an L4 disk checkpoint (assembled from the
	// latest complete wave) every N steps to CheckpointPath.
	CheckpointEvery int
	CheckpointPath  string
	Retry           swio.RetryPolicy

	// MaxRestarts bounds the recovery budget. A dead worker's patches
	// migrate to healthy owners when the wave deposits cover the loss;
	// otherwise the run escalates to the L4 checkpoint or a restart.
	MaxRestarts int

	Injector *fault.Injector
	Ctx      context.Context
	Logf     func(format string, args ...any)
}

// waveLog remembers the owner map at recent snapshot waves. Deposits
// keyed by patch are "held by" the patch's owner at deposit time, so
// recovery must invalidate by wave-time ownership, not by the ownership
// at the crash. Every rank records the identical values; last write
// wins.
type waveLog struct {
	mu    sync.Mutex
	owner map[int][]int
	order []int
}

func (w *waveLog) record(step int, owner []int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.owner == nil {
		w.owner = make(map[int][]int)
	}
	if _, ok := w.owner[step]; !ok {
		w.order = append(w.order, step)
		// The store keeps two generations; a small tail is plenty.
		for len(w.order) > 4 {
			delete(w.owner, w.order[0])
			w.order = w.order[1:]
		}
	}
	w.owner[step] = append(w.owner[step][:0], owner...)
}

// recent returns the recorded wave steps, newest first, plus a copy of
// each wave's owner map.
func (w *waveLog) recent() []struct {
	Step  int
	Owner []int
} {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]struct {
		Step  int
		Owner []int
	}, 0, len(w.order))
	for i := len(w.order) - 1; i >= 0; i-- {
		s := w.order[i]
		out = append(out, struct {
			Step  int
			Owner []int
		}{s, append([]int(nil), w.owner[s]...)})
	}
	return out
}

// Supervise runs a patch-mode simulation under failure supervision.
// When a worker dies, its patches are the unit of recovery: the newest
// snapshot wave whose deposits survive (L1 if the patch didn't move,
// its buddy's L2 copy or the group's L3 parity otherwise) is restored,
// the dead worker's patches migrate to the surviving owners, and the
// run resumes — the patch-world generalisation of psolve's spare-rank
// hot swap, at a shrunken world size instead of a spare budget.
func Supervise(o SupervisorOptions) (*core.MacroField, *Stats, error) {
	opt := o.Opts
	if err := opt.normalize(); err != nil {
		return nil, nil, err
	}
	til, err := NewTiling(opt.GNX, opt.GNY, opt.GNZ, opt.TX, opt.TY, opt.TZ)
	if err != nil {
		return nil, nil, err
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 5
	}
	if o.GroupSize <= 0 {
		o.GroupSize = 2
	}
	if o.Levels == 0 {
		o.Levels = resil.L1 | resil.L2 | resil.L3
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	newStore := func() (*resil.Store, error) { return storeFor(til, o.GroupSize) }
	store, err := newStore()
	if err != nil {
		return nil, nil, err
	}
	if o.Injector != nil {
		o.Injector.ExpandGroups(o.GroupSize, len(opt.Workers))
		if opt.Trace != nil {
			o.Injector.SetTracer(opt.Trace)
		}
	}

	stats := &Stats{Patches: til.P(), Workers: len(opt.Workers)}
	owner := initialOwner(til.P(), len(opt.Workers))
	var restore map[int]*resil.Snapshot
	start := 0
	var lastGood *core.Lattice
	waves := &waveLog{}

	for attempt := 0; ; attempt++ {
		if o.Injector != nil {
			o.Injector.BeginAttempt()
		}
		rc := &runConfig{
			opt:           &opt,
			til:           til,
			steps:         o.Steps,
			start:         start,
			owner:         owner,
			restore:       restore,
			store:         store,
			levels:        o.Levels,
			snapshotEvery: o.SnapshotEvery,
			waves:         waves,
			inj:           o.Injector,
			ctx:           o.Ctx,
			contain:       true,
			stats:         stats,
		}
		if o.CheckpointEvery > 0 && o.CheckpointPath != "" {
			rc.ckptEvery = o.CheckpointEvery
			rc.onCheckpoint = func(done int) error {
				rec, ok := store.LatestWave()
				if !ok || rec.Step != done {
					return nil // incomplete wave: skip this checkpoint
				}
				g, aerr := resil.Assemble(rec, opt.GNX, opt.GNY, opt.GNZ,
					opt.Tau, opt.Smagorinsky, opt.Force)
				if aerr != nil {
					return aerr
				}
				if werr := swio.CheckpointRetry(o.CheckpointPath, g, o.Retry); werr != nil {
					logf("patch: L4 checkpoint at step %d failed: %v", done, werr)
					return nil // disk trouble degrades, not fails, the run
				}
				lastGood = g
				return nil
			}
		}

		var world *mpi.World
		field, runErr := runAttempt(rc, func(w *mpi.World) { world = w })
		if runErr == nil {
			return field, stats, nil
		}
		if o.Ctx != nil && o.Ctx.Err() != nil {
			return nil, stats, fmt.Errorf("%w: %v", ErrCanceled, runErr)
		}
		if attempt >= o.MaxRestarts {
			return nil, stats, fmt.Errorf("patch: giving up after %d attempts: %w", attempt+1, runErr)
		}

		deadWorkers, _ := classifyDead(world.DeadRanks())
		survivors := surviving(len(opt.Workers), deadWorkers)
		if len(survivors) == 0 {
			return nil, stats, fmt.Errorf("patch: no surviving workers: %w", runErr)
		}

		if rec, waveOwner, ok := planRecovery(store, waves, deadWorkers); ok {
			// Patch-migration recovery: restore the wave, hand the dead
			// workers' patches to survivors, resume.
			deadPatches := patchesOwnedBy(waveOwner, deadWorkers)
			store.Invalidate(deadPatches)
			store.Reseed(rec)
			restore = rec.Blocks
			start = rec.Step
			owner = remapOwners(waveOwner, deadWorkers, survivors)
			stats.Recoveries++
			// Each dead-owned patch changes hands: the recovery path is
			// "migrate this patch to a healthy owner", so it counts.
			stats.Migrations += len(deadPatches)
			logf("patch: workers %v died; %d patches migrate to %d survivors, resuming from wave at step %d (%d buddy, %d parity restores)",
				deadWorkers, len(deadPatches), len(survivors), rec.Step, rec.BuddyRestores, rec.Reconstructions)
		} else if lastGood != nil {
			// Escalate to the L4 checkpoint: re-tile its global state.
			restore = snapshotsFromGlobal(til, lastGood)
			start = lastGood.Step()
			owner = initialOwner(til.P(), len(survivors))
			stats.Restarts++
			store, err = newStore()
			if err != nil {
				return nil, stats, err
			}
			waves = &waveLog{}
			logf("patch: workers %v died beyond memory repair; rolling back to L4 checkpoint at step %d on %d workers",
				deadWorkers, start, len(survivors))
		} else {
			// Restart from scratch on the survivors.
			restore = nil
			start = 0
			owner = initialOwner(til.P(), len(survivors))
			stats.Restarts++
			store, err = newStore()
			if err != nil {
				return nil, stats, err
			}
			waves = &waveLog{}
			logf("patch: workers %v died with no recoverable state; restarting from step 0 on %d workers",
				deadWorkers, len(survivors))
		}
		shrunk := make([]Worker, 0, len(survivors))
		for _, w := range survivors {
			shrunk = append(shrunk, opt.Workers[w])
		}
		opt.Workers = shrunk
	}
}

// storeFor builds a patch-keyed snapshot store: one slot per patch ID,
// parity groups over contiguous patch IDs.
func storeFor(til *Tiling, groupSize int) (*resil.Store, error) {
	blocks := make([]decomp.Block, 0, til.P())
	for _, p := range til.Patches {
		blocks = append(blocks, p.Block)
	}
	return resil.NewStore(til.P(), groupSize, blocks)
}

// planRecovery walks the recorded waves newest first and returns the
// first one whose deposits cover the dead workers' patches.
func planRecovery(store *resil.Store, waves *waveLog, deadWorkers []int) (*resil.Recovery, []int, bool) {
	for _, w := range waves.recent() {
		deadPatches := patchesOwnedBy(w.Owner, deadWorkers)
		rec, ok := store.RecoveryPlan(deadPatches)
		if ok && rec.Step == w.Step {
			return rec, w.Owner, true
		}
	}
	return nil, nil, false
}

// patchesOwnedBy lists the patches the given workers owned under the
// given owner map.
func patchesOwnedBy(owner []int, workers []int) []int {
	isDead := make(map[int]bool, len(workers))
	for _, w := range workers {
		isDead[w] = true
	}
	var out []int
	for p, o := range owner {
		if isDead[o] {
			out = append(out, p)
		}
	}
	return out
}

// surviving lists the worker indices not in dead, ascending.
func surviving(workers int, dead []int) []int {
	isDead := make(map[int]bool, len(dead))
	for _, w := range dead {
		isDead[w] = true
	}
	var out []int
	for w := 0; w < workers; w++ {
		if !isDead[w] {
			out = append(out, w)
		}
	}
	return out
}

// remapOwners rebuilds the owner map for the shrunken roster: a patch
// whose wave-time owner survived keeps it (re-indexed); a dead worker's
// patch is dealt round-robin to the survivors.
func remapOwners(waveOwner []int, dead []int, survivors []int) []int {
	newIndex := make(map[int]int, len(survivors))
	for i, w := range survivors {
		newIndex[w] = i
	}
	out := make([]int, len(waveOwner))
	for p, o := range waveOwner {
		if ni, ok := newIndex[o]; ok {
			out[p] = ni
		} else {
			out[p] = p % len(survivors)
		}
	}
	return out
}

// snapshotsFromGlobal slices a global lattice (an L4 checkpoint) back
// into per-patch snapshots for re-tiled restore.
func snapshotsFromGlobal(til *Tiling, g *core.Lattice) map[int]*resil.Snapshot {
	out := make(map[int]*resil.Snapshot, til.P())
	for _, p := range til.Patches {
		out[p.ID] = &resil.Snapshot{}
		resil.CaptureAt(out[p.ID], g, p.Block, p.ID)
	}
	return out
}

// classifyDead separates root worker deaths from collateral ones, as
// psolve's supervisor does: a worker whose cause wraps ErrRankDead or
// ErrWorldDown merely tripped over someone else's death.
func classifyDead(ledger map[int]error) (dead []int, injected bool) {
	injected = true
	for r, e := range ledger {
		if e == nil {
			continue
		}
		if errors.Is(e, mpi.ErrRankDead) || errors.Is(e, mpi.ErrWorldDown) {
			continue
		}
		dead = append(dead, r)
		if !errors.Is(e, fault.ErrInjectedCrash) {
			injected = false
		}
	}
	sort.Ints(dead)
	return dead, injected
}
