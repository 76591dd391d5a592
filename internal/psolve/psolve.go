// Package psolve is the distributed LBM solver: it combines the core
// kernel, the 2-D domain decomposition and the mpi runtime into multi-rank
// simulations with halo exchange.
//
// There is one way to step a rank, the paper's on-the-fly scheme of
// Fig. 6(2) (§IV-C-1): post the x faces, compute the inner region (which
// reads no x/y halo) while they travel, collect them, exchange the y faces
// (whose corners carry the x halo just received), then finish the boundary
// strips. Each rank's lattice uses the in-place AA storage of the
// single-rank path, so a case gives the same bits on one rank and on many,
// and, like the single rank's pool, fills its own next halo (its face
// conditions) from those sweeps and reads across the axes it wraps
// itself (Solver.Step).
//
// A modelled accelerator (Options.Device: the simulated Sunway core
// group, the GPU node model) does not step the lattice. Its rank steps as
// every rank does, and the device prices the step: SimTime and the Sim
// clock take its modelled time. The sequential scheme of Fig. 6(1)
// survives only as the ablation of the performance model in
// internal/scaling.
package psolve

import (
	"fmt"
	"time"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/trace"
)

// Exchange tags: one per face direction so streams never mix.
const (
	tagXPlus = iota + 1
	tagXMinus
	tagYPlus
	tagYMinus
)

// Options configures a distributed run.
type Options struct {
	// Global interior dimensions.
	GNX, GNY, GNZ int
	// Process grid (PX·PY ranks).
	PX, PY int
	// Tau is the LBGK relaxation time; Smagorinsky enables LES.
	Tau         float64
	Smagorinsky float64
	// Force is the body-force density (Guo scheme).
	Force [3]float64
	// PeriodicX/Y wrap the decomposed axes through neighbour exchange;
	// PeriodicZ wraps the undecomposed axis locally.
	PeriodicX, PeriodicY, PeriodicZ bool
	// FaceBC supplies boundary conditions for non-periodic global faces.
	// Conditions for X/Y faces are applied only by edge ranks; Z faces
	// by every rank. Nil entries leave the halo as-is.
	FaceBC map[core.Face]boundary.Condition
	// Walls marks global cells as solid obstacles at initialisation.
	Walls core.WallsFunc
	// Init supplies the initial macroscopic state per global cell;
	// nil means ρ=1, u=0.
	Init core.InitFunc
	// Deprecated: OnTheFly is ignored — the overlapped exchange is the only
	// schedule. The field exists only because bench/layers.go sets it and
	// bench/ is frozen between benchmark PRs; the next one drops both.
	OnTheFly bool
	// Restore, if non-nil, initialises each rank's sub-block from this
	// global lattice (e.g. one read back by swio.ReadCheckpoint),
	// overriding Walls and Init.
	Restore *core.Lattice
	// Device, if non-nil, builds each rank's modelled accelerator over its
	// lattice (e.g. the simulated Sunway core group of internal/swlb),
	// reproducing the paper's MPI+Athread stack: the rank steps as every
	// rank does, and the device prices each step.
	Device func(lat *core.Lattice) (Device, error)
	// Trace, if non-nil, records per-rank timelines (steps, halo
	// exchange, compute phases). The recovery ladder installs
	// SupervisorOptions.Opts.Trace on every world it creates; Run passes
	// this one there.
	Trace *trace.Tracer
}

// Device is the price model of a step on a modelled accelerator
// (swlb.Engine, gpu.Engine). Price returns the modelled time of one step
// of the lattice the device was built over and records its phases (CPE
// and MPE kernels, DMA counters, GPU copies) on the trace handle SetTrace
// gave it. The first Price prices the flags the lattice then holds, so a
// rank calls it only once its first step's exchanges have brought in the
// halo's flags.
type Device interface {
	Price() float64
	SetTrace(tr *trace.RankTracer)
}

// Solver is the per-rank state of a distributed simulation.
type Solver struct {
	Opts  Options
	Comm  *mpi.Comm
	Cart  *mpi.Cart2D
	Block decomp.Block
	Lat   *core.Lattice

	// blk is the rank's block step: its own halo fill and its face
	// plan, links to the x and y neighbours of the process grid.
	blk *BlockStep

	// owned is the one block the rank owns, and owner the identity map
	// of ranks to the blocks they hold: a rank world's snapshot waves and
	// gathers are the patch world's over them.
	owned []resil.Owned
	owner []int

	device Device
	// sim accumulates the device's modelled time across steps.
	sim float64

	// StragglerFactor inflates this rank's modelled (Sim-clock) step
	// time; 0 or 1 means nominal speed. The supervisor sets it from the
	// fault plan's straggle@ directives so trace.Analyze can flag the
	// slow rank even though the injection only affects the performance
	// model, not the host wall clock.
	StragglerFactor float64

	// tr is this rank's trace handle (nil-safe no-op when tracing is
	// off); simCursor is the rank's position on the modelled Sim clock.
	tr        *trace.RankTracer
	simCursor float64
}

// New builds the per-rank solver: decomposes the domain and builds the
// local lattice (block + halo) with the case's geometry and initial state.
func New(c *mpi.Comm, opts Options) (*Solver, error) {
	if opts.PX*opts.PY != c.Size() {
		return nil, fmt.Errorf("psolve: grid %d×%d != world size %d", opts.PX, opts.PY, c.Size())
	}
	cart, err := mpi.NewCart2D(c, opts.PX, opts.PY, opts.PeriodicX, opts.PeriodicY)
	if err != nil {
		return nil, err
	}
	blocks, err := decomp.Decompose2D(opts.GNX, opts.GNY, opts.GNZ, opts.PX, opts.PY)
	if err != nil {
		return nil, err
	}
	blk := blocks[c.Rank()]
	walls, init := opts.Walls, opts.Init
	if opts.Restore != nil {
		walls, init = nil, nil
	}
	lat, err := core.BuildLattice(&lattice.D3Q19, core.Box(blk), opts.Tau, walls, init)
	if err != nil {
		return nil, err
	}
	lat.Smagorinsky = opts.Smagorinsky
	lat.Force = opts.Force
	// Before any restore, so the phase-aware writes land in the layout the
	// kernel will read (at step 0 the built layout is that layout).
	lat.EnableAA()

	s := &Solver{Opts: opts, Comm: c, Cart: cart, Block: blk, Lat: lat, tr: c.Trace(),
		owned: []resil.Owned{{ID: c.Rank(), Block: blk, Lat: lat}}, owner: make([]int, c.Size())}
	for r := range s.owner {
		s.owner[r] = r
	}
	// Resume the modelled clock where a previous attempt (before a
	// supervised restart) left off, so attempts lay out consecutively.
	s.simCursor = s.tr.SimWatermark()
	if opts.Restore != nil {
		if err := s.restoreFrom(opts.Restore); err != nil {
			return nil, err
		}
	}
	conds := FaceConds(blk, opts.GNX, opts.GNY, opts.GNZ,
		[3]bool{opts.PeriodicX, opts.PeriodicY, opts.PeriodicZ}, opts.FaceBC)
	wrap := [3]bool{opts.PeriodicX && opts.PX == 1, opts.PeriodicY && opts.PY == 1, opts.PeriodicZ}
	s.blk = NewBlockStep(c, lat, wrap, conds)
	// A message sent towards plus carries the axis' plus tag, so the minus
	// neighbour's face arrives under it and the plus neighbour's under the
	// minus tag. An axis the rank wraps itself has no links.
	link := func(f core.Face, peer, sendTag, recvTag int) {
		if peer >= 0 && !wrap[f/2] {
			s.blk.Link(f, peer, sendTag, recvTag)
		}
	}
	link(core.FaceXMin, cart.Neighbor(-1, 0), tagXMinus, tagXPlus)
	link(core.FaceXMax, cart.Neighbor(1, 0), tagXPlus, tagXMinus)
	link(core.FaceYMin, cart.Neighbor(0, -1), tagYMinus, tagYPlus)
	link(core.FaceYMax, cart.Neighbor(0, 1), tagYPlus, tagYMinus)
	if opts.Device != nil {
		d, err := opts.Device(lat)
		if err != nil {
			return nil, err
		}
		d.SetTrace(s.tr)
		s.device = d
	}
	return s, nil
}

// FaceConds selects the global-face conditions block b of a gnx×gny×gnz
// lattice applies: faceBC's condition on every global face the block
// touches, in the fixed face order (XMin, XMax, YMin, YMax, ZMin, ZMax)
// every world applies them in, so halo corners resolve identically
// however the lattice is cut. A face of a periodic axis takes no
// condition: its halo is the wrap. A profiled inlet reads global
// coordinates on every block (atOrigin), so it is the same on every cut.
func FaceConds(b decomp.Block, gnx, gny, gnz int, periodic [3]bool, faceBC map[core.Face]boundary.Condition) []boundary.Condition {
	lo := [3]int{b.X0, b.Y0, b.Z0}
	hi := [3]int{b.X0 + b.NX, b.Y0 + b.NY, b.Z0 + b.NZ}
	n := [3]int{gnx, gny, gnz}
	var out []boundary.Condition
	for axis := 0; axis < 3; axis++ {
		if periodic[axis] {
			continue
		}
		minF, maxF := core.Face(2*axis), core.Face(2*axis+1)
		if cond := faceBC[minF]; lo[axis] == 0 && cond != nil {
			out = append(out, atOrigin(cond, lo))
		}
		if cond := faceBC[maxF]; hi[axis] == n[axis] && cond != nil {
			out = append(out, atOrigin(cond, lo))
		}
	}
	return out
}

// atOrigin returns c for a block at origin o of the global lattice: a
// profiled inlet off the origin becomes a copy whose profile adds o to
// the block coordinates ApplyLines hands it; anything else is c itself.
func atOrigin(c boundary.Condition, o [3]int) boundary.Condition {
	if o == [3]int{} {
		return c
	}
	shift := func(p func(x, y, z int) [3]float64) func(x, y, z int) [3]float64 {
		return func(x, y, z int) [3]float64 { return p(x+o[0], y+o[1], z+o[2]) }
	}
	switch v := c.(type) {
	case *boundary.VelocityInlet:
		if v.Profile != nil {
			in := *v
			in.Profile = shift(v.Profile)
			return &in
		}
	case *boundary.NEEInlet:
		if v.Profile != nil {
			in := *v
			in.Profile = shift(v.Profile)
			return &in
		}
	}
	return c
}

// SimTime is the device's modelled time of the rank's steps so far; 0
// without a device.
func (s *Solver) SimTime() float64 { return s.sim }

// FaceTime is the time the rank has spent on its own halo fill: the whole
// fills, the planes its sweeps fill and the tails.
func (s *Solver) FaceTime() time.Duration { return s.blk.FaceTime() }

// Step advances the distributed simulation by one time step, the rank's
// block step (StepBlocks): post x → inner region → collect x → post y,
// collect y → boundary strips.
//
// The sweeps read across the axes the rank wraps itself (z, and x or y
// with one rank along them), so no step copies their halo: only the edge
// cells that the sweeps, the conditions and the exchanges still read are
// wrapped (core.Lattice.PeriodicEdges). The rank's own halo — those
// edges and its face conditions — is filled for the next step inside
// this step's sweeps, as core.Pool.StepFaces fills the single rank's,
// and in the same order (HaloSet): the west and
// east columns, swept together in y order, run each plane's fill once
// their rows have left it final, and a tail runs every condition in order
// on the planes no hook finished (the two y-halo planes and the planes
// the south and north strips reach) and the y-face conditions whole. On
// every interior cell, and on every halo cell a condition or an exchange
// reads, that equals filling the halo whole at the start of the next step
// and reading it, bit for bit, as long as nothing else writes the lattice
// between steps. Every attempt builds its ranks through New and nothing
// does, so the contract is: the first Step fills the halo whole, the
// wraps included.
//
// A rank with a device then prices the step (stepPriced).
func (s *Solver) Step() { s.stepPriced(s.advance) }

// advance is Step without its price and its spans.
func (s *Solver) advance() { StepBlocks(s.blk) }

// stepPriced runs step; a rank with a device then prices it and adds the
// price to its SimTime. With tracing on, each step records a wall-clock
// "step" span plus a modelled Sim-clock "step" span: the price when a
// device exists, the wall duration otherwise, either way inflated by
// StragglerFactor — that is how an injected straggler (which slows the
// performance model, not the host) becomes visible to trace.Analyze.
func (s *Solver) stepPriced(step func()) {
	price := 0.0
	if s.tr != nil {
		t0 := s.tr.Now()
		s.tr.Begin(trace.Wall, trace.TrackStep, "step", t0)
		// Deferred so a rank aborted mid-step (a peer died, the world
		// went down) still closes its span during the panic unwind.
		defer func() {
			t1 := s.tr.Now()
			s.tr.End(trace.Wall, trace.TrackStep, t1)
			dt := t1 - t0
			if s.device != nil {
				dt = price
			}
			if s.StragglerFactor > 1 {
				dt *= s.StragglerFactor
			}
			s.tr.Span(trace.Sim, trace.TrackStep, "step", s.simCursor, s.simCursor+dt)
			s.simCursor += dt
		}()
	}
	step()
	if s.device != nil {
		price = s.device.Price()
		s.sim += price
	}
}

// GlobalMass returns the total mass across all ranks (on every rank).
func (s *Solver) GlobalMass() float64 {
	return s.Comm.AllreduceSum(s.Lat.TotalMass())
}

// Run executes a distributed simulation of steps more steps (after
// opts.Restore's step, when set) and returns the gathered global
// macroscopic field from rank 0: the recovery ladder with every policy
// off.
func Run(opts Options, steps int) (*core.MacroField, error) {
	o := SupervisorOptions{Opts: opts, Steps: steps}
	if opts.Restore != nil {
		o.Steps += opts.Restore.Step()
	}
	m, _, err := Supervise(o)
	return m, err
}
