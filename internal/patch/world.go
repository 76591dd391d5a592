package patch

import (
	"fmt"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/trace"
)

// Options configures a patch-mode run. The physics fields mirror
// psolve.Options; the patch-specific fields describe the tiling, the
// worker roster and the balancer policy.
type Options struct {
	// Global lattice extents.
	GNX, GNY, GNZ int
	// Patches per axis. Zero means 1 (no cut along that axis).
	TX, TY, TZ int

	Tau         float64
	Smagorinsky float64
	Force       [3]float64

	PeriodicX, PeriodicY, PeriodicZ bool
	// FaceBC maps global faces to boundary conditions; a patch applies
	// the condition of every global face it touches on a non-periodic
	// axis, chosen by psolve.FaceConds as every rank's are.
	FaceBC map[core.Face]boundary.Condition
	// Walls marks solid cells in global coordinates.
	Walls core.WallsFunc
	// Init yields the initial macroscopic state in global coordinates;
	// nil means rest equilibrium (rho=1, u=0).
	Init core.InitFunc

	// Workers is the owner roster: one world rank per entry. The world
	// size is len(Workers).
	Workers []Worker

	// RebalanceEvery triggers the measured-cost balancer every k steps
	// (0 disables it). The balancer migrates patches when the per-worker
	// step-cost imbalance (max/mean) exceeds Threshold and the greedy
	// replan predicts a shorter makespan.
	RebalanceEvery int
	Threshold      float64 // imbalance trigger, default 1.2
	SmoothAlpha    float64 // EWMA weight of the newest cost sample, default 0.5

	// ForceMigrateEvery rotates every patch to the next worker every k
	// steps regardless of measurements — the conform oracle uses it to
	// prove migration bit-identity. It overrides the balancer at the
	// boundaries where it fires.
	ForceMigrateEvery int

	// CostModel, when set, replaces the wall-clock per-patch cost sample
	// with a deterministic model (benchmarks and tests use it so balancer
	// decisions are reproducible). It must be a pure function.
	CostModel func(worker int, p Patch) float64

	Trace *trace.Tracer
}

func (o *Options) normalize() error {
	if o.TX == 0 {
		o.TX = 1
	}
	if o.TY == 0 {
		o.TY = 1
	}
	if o.TZ == 0 {
		o.TZ = 1
	}
	if len(o.Workers) == 0 {
		return fmt.Errorf("patch: empty worker roster")
	}
	if o.Threshold <= 0 {
		o.Threshold = 1.2
	}
	if o.SmoothAlpha <= 0 || o.SmoothAlpha > 1 {
		o.SmoothAlpha = 0.5
	}
	return nil
}

// Message tags. Halo tags identify (destination patch, packed face),
// migration tags the patch being shipped; snapshot-wave tags start at
// snapTags, where resil.Store.Tag lays one per patch and message kind.
// All are ≥ 1 as the mpi transport requires.
func haloTag(dstPatch int, face core.Face) int { return 1 + dstPatch*6 + int(face) }

func (t *Tiling) migTag(p int) int { return 1 + 6*t.P() + p }
func (t *Tiling) snapTags() int    { return 1 + 7*t.P() }

// node is the per-rank state of the patch world: the patches this worker
// currently owns, each with its psolve.BlockStep — the step a psolve rank
// runs on its one block — and its price model on a modelled device, and
// the scratch the snapshot and migration paths reuse. It is the patch
// world's psolve.Rank.
type node struct {
	w     *World
	opt   *Options
	c     *mpi.Comm
	me    int
	tr    *trace.RankTracer
	til   *Tiling
	step  int // completed steps
	steps int // the run's final step; nothing rebalances at or after it

	owner []int // replicated owner map, updated in lockstep on every rank
	// owned lists the owned patches in ascending ID order, with their
	// blocks and lattices (derived from owner): what the steps, the
	// snapshot waves and the gathers walk.
	owned []resil.Owned

	// blocks[p] is owned patch p's block step (nil for a patch another
	// worker owns), its face plan built from the owner map (plan);
	// stepping lists the owned ones in owned's order, for StepBlocks.
	blocks   []*psolve.BlockStep
	stepping []*psolve.BlockStep
	devs     map[int]psolve.Device // per owned patch on a modelled device
	// sim is the modelled time of the worker's steps: the sum of its
	// patches' prices.
	sim float64

	cost     []float64 // EWMA step-cost per patch (meaningful for owned entries)
	straggle float64   // straggler-model multiplier for this worker's samples
	names    []string  // precomputed per-patch counter names

	// snap is the migration buffer, handed to the receiver with every
	// move.
	snap resil.Snapshot
}

// newNode builds worker c's share of an attempt of w: its patches under
// w's owner map, sliced out of restore when one is given (a global
// lattice: an L4 checkpoint or an assembled snapshot wave), built from
// the case otherwise, for a run to step steps. straggle is the worker's
// injected straggler factor.
func newNode(w *World, c *mpi.Comm, restore *core.Lattice, steps int, straggle float64) (*node, error) {
	n := &node{
		w:      w,
		opt:    &w.opt,
		c:      c,
		me:     c.Rank(),
		tr:     c.Trace(),
		til:    w.til,
		steps:  steps,
		owner:  append([]int(nil), w.owner...),
		blocks: make([]*psolve.BlockStep, w.til.P()),
		devs:   make(map[int]psolve.Device),
		cost:   make([]float64, w.til.P()),
	}
	n.straggle = w.opt.Workers[n.me].Straggle
	if straggle > 1 {
		n.straggle = max(n.straggle, 1) * straggle
	}
	for _, p := range n.til.Patches {
		n.names = append(n.names, fmt.Sprintf("patch%d", p.ID))
	}
	if restore != nil {
		n.step = restore.Step()
	}
	for _, p := range n.til.Patches {
		if n.owner[p.ID] != n.me {
			continue
		}
		var err error
		if restore != nil {
			resil.CaptureAt(&n.snap, restore, p.Block, p.ID)
			err = n.installPatch(p.ID, &n.snap)
		} else {
			err = n.buildFresh(p)
		}
		if err != nil {
			return nil, err
		}
	}
	n.rebuildOwned()
	return n, nil
}

// newLattice builds patch p's lattice at the given step, from walls and
// init (nil for a patch a snapshot will fill), in place (AA) from birth —
// before any restore, so the phase-aware writes land in the layout the
// kernel reads. Every worker steps the same storage, so a migrating patch
// keeps its layout.
func (n *node) newLattice(p Patch, step int, walls core.WallsFunc, init core.InitFunc) (*core.Lattice, error) {
	opt := n.opt
	l, err := core.BuildLattice(&lattice.D3Q19, core.Box(p.Block), opt.Tau, walls, init)
	if err != nil {
		return nil, err
	}
	l.Smagorinsky = opt.Smagorinsky
	l.Force = opt.Force
	l.EnableAA()
	l.SetStep(step)
	return l, nil
}

// buildFresh constructs a patch lattice from the case's walls and initial
// state, exactly as psolve builds its blocks.
func (n *node) buildFresh(p Patch) error {
	l, err := n.newLattice(p, 0, n.opt.Walls, n.opt.Init)
	if err != nil {
		return err
	}
	return n.adopt(p.ID, l)
}

// adopt registers a lattice as an owned patch: its block step, which wraps
// the periodic axes the tiling leaves uncut and applies the conditions of
// the global faces the patch touches, and its price model on a modelled
// device. A new block step fills its halo whole on its first step.
func (n *node) adopt(id int, l *core.Lattice) error {
	d, err := n.opt.Workers[n.me].device(l)
	if err != nil {
		return fmt.Errorf("patch: worker %d device for patch %d: %w", n.me, id, err)
	}
	if d != nil {
		d.SetTrace(n.tr)
		n.devs[id] = d
	}
	o, per := n.opt, n.periodic()
	var wrap [3]bool
	for axis := range wrap {
		wrap[axis] = per[axis] && n.til.parts(axis) == 1
	}
	n.blocks[id] = psolve.NewBlockStep(n.c, l, wrap,
		psolve.FaceConds(n.til.Patches[id].Block, o.GNX, o.GNY, o.GNZ, per, o.FaceBC))
	return nil
}

// installPatch rebuilds a patch from a verified snapshot — the receive
// half of a migration and the restore half of a recovery. Only the
// interior is restored; the new block step's first step fills the halo
// whole from it before that step's exchanges bring in the faces, so every
// halo cell the kernel reads is rewritten from current interior state and
// an installed patch is bit-identical to one that never moved.
func (n *node) installPatch(id int, s *resil.Snapshot) error {
	if !s.Verify() {
		return fmt.Errorf("patch: snapshot of patch %d fails checksum at install", id)
	}
	l, err := n.newLattice(n.til.Patches[id], s.Step, nil, nil)
	if err != nil {
		return err
	}
	if err := resil.RestoreInto(l, s); err != nil {
		return fmt.Errorf("patch: installing patch %d: %w", id, err)
	}
	return n.adopt(id, l)
}

// rebuildOwned lists the owned patches under the owner map and plans
// their faces (plan).
func (n *node) rebuildOwned() {
	n.owned, n.stepping = n.owned[:0], n.stepping[:0]
	for p, o := range n.owner {
		if o == n.me {
			n.owned = append(n.owned, resil.Owned{ID: p, Block: n.til.Patches[p].Block, Lat: n.blocks[p].Lat})
			n.stepping = append(n.stepping, n.blocks[p])
		}
	}
	n.plan()
}

// plan builds every owned patch's face plan from the tiling and the owner
// map: nothing on a global face or an axis the patch wraps itself, a copy
// into the halo of a neighbour this worker owns, a link to one another
// worker owns. A link sends the patch's face under the neighbour's halo
// tag and receives the neighbour's opposite face under the patch's. A new
// plan carries cell flags on its first step, copies and links alike.
func (n *node) plan() {
	per := n.periodic()
	for _, o := range n.owned {
		b := n.blocks[o.ID]
		b.ResetFaces()
		for f := core.FaceXMin; f <= core.FaceZMax; f++ {
			axis := int(f) / 2
			nb := n.til.Neighbor(o.ID, axis, 2*(int(f)%2)-1, per[axis])
			switch {
			case nb < 0 || nb == o.ID:
			case n.owner[nb] == n.me:
				b.CopyTo(f, n.blocks[nb].Lat)
			default:
				b.Link(f, n.owner[nb], haloTag(nb, f), haloTag(o.ID, f.Opposite()))
			}
		}
	}
}

func (n *node) periodic() [3]bool {
	return [3]bool{n.opt.PeriodicX, n.opt.PeriodicY, n.opt.PeriodicZ}
}

// stepOnce advances every owned patch one time step through the block
// step a psolve rank runs, each phase over all owned patches before the
// next (psolve.StepBlocks), then prices it.
func (n *node) stepOnce() {
	if n.tr != nil {
		n.tr.Begin(trace.Wall, trace.TrackStep, "step", n.tr.Now())
		defer func() { n.tr.End(trace.Wall, trace.TrackStep, n.tr.Now()) }()
	}
	psolve.StepBlocks(n.stepping...)
	n.price()
}

// price samples each owned patch's step cost into the EWMA the balancer
// reads and onto the trace's patch track: the time its own sweeps and
// fills took (BlockStep.Busy), or the step's price on a modelled device.
// A patch's first price comes after its first exchanges, which bring in
// its halo's flags.
func (n *node) price() {
	opt := n.opt
	for _, o := range n.owned {
		p := o.ID
		dt := n.blocks[p].Busy().Seconds()
		if d := n.devs[p]; d != nil {
			dt = d.Price()
			n.sim += dt
		}
		if opt.CostModel != nil {
			dt = opt.CostModel(n.me, n.til.Patches[p])
		}
		if n.straggle > 1 {
			dt *= n.straggle
		}
		if prev := n.cost[p]; prev > 0 {
			n.cost[p] = opt.SmoothAlpha*dt + (1-opt.SmoothAlpha)*prev
		} else {
			n.cost[p] = dt
		}
		if n.tr != nil {
			n.tr.Counter(trace.Wall, trace.TrackPatch, n.names[p], n.tr.Now(), n.cost[p])
		}
	}
}

// Step advances every owned patch one time step, then runs the balance
// boundary that falls after it, if any.
func (n *node) Step() {
	n.stepOnce()
	n.step++
	if n.rebalanceDue(n.step) {
		if err := n.rebalance(n.step); err != nil {
			n.c.AbortRank(err)
		}
	}
}

// SimTime is the modelled time of the worker's steps so far: the sum of
// its patches' prices; 0 on a core worker.
func (n *node) SimTime() float64 { return n.sim }

// ResilCapture runs this worker's share of a snapshot wave, after noting
// which worker holds which patch at it.
func (n *node) ResilCapture(st *resil.Store, levels resil.Levels) error {
	n.w.waves.record(n.step, n.owner)
	return st.Wave(n.c, n.owner, n.owned, n.til.snapTags(), levels)
}

// GatherLattice assembles the global lattice on root (nil elsewhere) from
// a snapshot of every owned patch.
func (n *node) GatherLattice(root int) (*core.Lattice, error) {
	return psolve.GatherLattice(n.c, root, n.owned, n.w.Assemble)
}

// GatherMacro closes the run's statistics and stitches the global
// macroscopic field on root (nil elsewhere). Every worker must call it.
func (n *node) GatherMacro(root int) *core.MacroField {
	n.finishStats()
	return psolve.GatherMacro(n.c, root, n.opt.GNX, n.opt.GNY, n.opt.GNZ, n.owned)
}

// Run executes a patch-mode simulation to completion on a fresh world —
// the recovery ladder with every policy off — and returns the gathered
// global field plus the balancer statistics.
func Run(opt Options, steps int) (*core.MacroField, *Stats, error) {
	w, err := NewWorld(opt)
	if err != nil {
		return nil, nil, err
	}
	o := psolve.SupervisorOptions{Steps: steps}
	o.Opts.Trace = opt.Trace
	field, _, err := psolve.SuperviseOn(w, o)
	return field, w.stats, err
}

// initialOwner distributes patches round-robin over the workers.
func initialOwner(patches, workers int) []int {
	owner := make([]int, patches)
	for p := range owner {
		owner[p] = p % workers
	}
	return owner
}
