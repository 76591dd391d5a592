package patch

import (
	"fmt"
	"slices"
	"sync"

	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/resil"
)

// World is the patch decomposition as psolve's recovery ladder drives it
// (psolve.SuperviseOn): the tiling is fixed, while the owner map and the
// worker roster change between attempts. The holders of its snapshot
// store are patch IDs, so a dead worker's patches re-home onto the
// surviving workers — the patch-world generalisation of the rank world's
// spare-rank hot swap, at a smaller world instead of a spare budget.
type World struct {
	opt   Options
	til   *Tiling
	owner []int    // owner map the next attempt starts from
	waves *waveLog // owner map at each recent wave of the current store
	stats *Stats
}

// NewWorld tiles opt's lattice over its worker roster.
func NewWorld(opt Options) (*World, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	til, err := NewTiling(opt.GNX, opt.GNY, opt.GNZ, opt.TX, opt.TY, opt.TZ)
	if err != nil {
		return nil, err
	}
	// The roster shrinks between attempts; never under the caller's feet.
	opt.Workers = append([]Worker(nil), opt.Workers...)
	return &World{
		opt:   opt,
		til:   til,
		owner: initialOwner(til.P(), len(opt.Workers)),
		waves: &waveLog{},
		stats: &Stats{Patches: til.P(), Workers: len(opt.Workers)},
	}, nil
}

// Stats returns the balancer and topology summary of the run so far.
func (w *World) Stats() *Stats { return w.stats }

// Ranks is the number of workers of the next attempt.
func (w *World) Ranks() int { return len(w.opt.Workers) }

// NewStore lays a snapshot store over the patch IDs: one holder per
// patch, parity groups over contiguous IDs.
func (w *World) NewStore(groupSize int) (*resil.Store, error) {
	blocks := make([]decomp.Block, 0, w.til.P())
	for _, p := range w.til.Patches {
		blocks = append(blocks, p.Block)
	}
	return resil.NewStore(len(blocks), groupSize, blocks)
}

// NewRank builds worker c's share of an attempt: its patches under the
// current owner map, sliced out of restore when one is given.
func (w *World) NewRank(c *mpi.Comm, restore *core.Lattice, steps int, straggle float64) (psolve.Rank, error) {
	if restore != nil && (restore.NX != w.opt.GNX || restore.NY != w.opt.GNY || restore.NZ != w.opt.GNZ) {
		return nil, fmt.Errorf("patch: restore lattice %d×%d×%d does not match case %d×%d×%d",
			restore.NX, restore.NY, restore.NZ, w.opt.GNX, w.opt.GNY, w.opt.GNZ)
	}
	n, err := newNode(w, c, restore, steps, straggle)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// Assemble places a recovery's patch snapshots into one global lattice.
func (w *World) Assemble(rec *resil.Recovery) (*core.Lattice, error) {
	o := &w.opt
	return resil.Assemble(rec, o.GNX, o.GNY, o.GNZ, o.Tau, o.Smagorinsky, o.Force)
}

// Rehome finds the newest wave whose deposits cover the patches the dead
// workers owned at that wave (L1 if the patch survived with its owner,
// its buddy's L2 copy or the group's L3 parity otherwise) and deals
// those patches to the surviving workers. There are no spares to spend.
func (w *World) Rehome(st *resil.Store, dead []int, _ int) (*resil.Recovery, []int, bool) {
	survivors := surviving(len(w.opt.Workers), dead)
	if len(survivors) == 0 {
		return nil, nil, false
	}
	rec, waveOwner, ok := w.waves.plan(st, dead)
	if !ok {
		return nil, nil, false
	}
	lost := patchesOwnedBy(waveOwner, dead)
	w.owner = remapOwners(waveOwner, survivors)
	w.keep(survivors)
	// The reseeded wave is held by the patches' new owners.
	w.waves = &waveLog{}
	w.waves.record(rec.Step, w.owner)
	// Each dead-owned patch changes hands: the recovery is "migrate this
	// patch to a healthy owner", so it counts as a migration.
	w.stats.Migrations += len(lost)
	return rec, lost, true
}

// Restart deals the patches round-robin again for an escalated attempt,
// over one worker fewer when shrink is set: the first dead one, or the
// last worker when none died on its own.
func (w *World) Restart(dead []int, shrink bool) {
	if shrink {
		drop := len(w.opt.Workers) - 1
		if len(dead) > 0 {
			drop = dead[0]
		}
		w.keep(surviving(len(w.opt.Workers), []int{drop}))
	}
	w.owner = initialOwner(w.til.P(), len(w.opt.Workers))
	w.waves = &waveLog{}
}

// keep narrows the roster to the given worker indices, in order.
func (w *World) keep(workers []int) {
	roster := make([]Worker, 0, len(workers))
	for _, i := range workers {
		roster = append(roster, w.opt.Workers[i])
	}
	w.opt.Workers = roster
}

// waveLog remembers the owner map at recent snapshot waves. Deposits
// keyed by patch are "held by" the patch's owner at deposit time, so
// recovery must invalidate by wave-time ownership, not by the ownership
// at the crash. Every rank records the identical values; last write
// wins. The log is a ring whose owner maps are reused, so recording a
// wave allocates nothing once the ring is full.
type waveLog struct {
	mu    sync.Mutex
	steps [2]int   // one wave per generation the store keeps
	owner [2][]int // owner map at each of steps; nil: no wave there yet
	next  int      // the slot the next new wave takes; the newest is just before it
}

func (w *waveLog) record(step int, owner []int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := slices.Index(w.steps[:], step)
	if i < 0 || w.owner[i] == nil {
		i, w.next = w.next, (w.next+1)%len(w.steps)
		w.steps[i] = step
	}
	w.owner[i] = append(w.owner[i][:0], owner...)
}

// plan walks the recorded waves newest first and returns the first one
// whose deposits in st cover the patches the dead workers owned at it,
// with that wave's owner map.
func (w *waveLog) plan(st *resil.Store, dead []int) (*resil.Recovery, []int, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for k := range len(w.steps) {
		i := (w.next + len(w.steps) - 1 - k) % len(w.steps)
		if w.owner[i] == nil {
			continue
		}
		rec, ok := st.RecoveryPlan(patchesOwnedBy(w.owner[i], dead))
		if ok && rec.Step == w.steps[i] {
			return rec, w.owner[i], true
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

// remapOwners rebuilds the owner map for the narrowed roster: a patch
// whose wave-time owner survived keeps it (re-indexed); a dead worker's
// patch is dealt round-robin to the survivors.
func remapOwners(waveOwner []int, survivors []int) []int {
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
