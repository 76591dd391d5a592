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
	"slices"
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

	bcs []boundary.Condition
	// fill is the rank's own halo fill in the one-rank order (HaloSet):
	// the periodic z wrap, bcs, then the x and y wraps of an axis with
	// one rank along it. The strips run its x- and z-face members one
	// y-plane at a time. filled says the halo already holds the fill for
	// the coming step; next is the view one step ahead that the sweep
	// fills it through. tail lists the allocated y-planes no sweep hook
	// finishes. wrap marks the axes the fill wraps (fill.Wrap), which the
	// sweeps read across.
	fill   *boundary.Set
	filled bool
	next   core.Lattice
	tail   []int
	wrap   core.Wrap
	// stripDone is the strips' row hook, bound once so a step allocates
	// nothing.
	stripDone func(y int)
	// faceTime is the time the rank has spent on its own halo fill.
	faceTime time.Duration

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

	// The step's fixed shape, derived once in New: the halo plan of the
	// two decomposed axes, the inner region computed while the x faces
	// travel (empty for blocks too thin to have one) and the boundary
	// strips that finish the interior.
	axes   [2]axisPlan
	inner  region
	strips []region
}

// region is an x/y sub-block of the interior, x0 ≤ x < x1, y0 ≤ y < y1.
type region struct{ x0, x1, y0, y1 int }

// axisPlan is the halo exchange of one decomposed axis: the links to the
// minus and plus neighbours (nil at a non-periodic edge). wrap marks a
// periodic axis with a single rank along it: the neighbour is this rank,
// so the exchange is a local periodic wrap.
type axisPlan struct {
	wrap        bool
	minus, plus *Link
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
	s.bcs = FaceConds(blk, opts.GNX, opts.GNY, opts.GNZ,
		[3]bool{opts.PeriodicX, opts.PeriodicY, opts.PeriodicZ}, opts.FaceBC)
	s.axes[0] = s.planAxis(core.FaceXMin, core.FaceXMax, tagXMinus, tagXPlus,
		cart.Neighbor(-1, 0), cart.Neighbor(1, 0))
	s.axes[1] = s.planAxis(core.FaceYMin, core.FaceYMax, tagYMinus, tagYPlus,
		cart.Neighbor(0, -1), cart.Neighbor(0, 1))
	s.fill = HaloSet(s.axes[0].wrap, s.axes[1].wrap, opts.PeriodicZ, s.bcs)
	s.wrap = s.fill.Wrap()
	if opts.Device != nil {
		d, err := opts.Device(lat)
		if err != nil {
			return nil, err
		}
		d.SetTrace(s.tr)
		s.device = d
	}
	if nx, ny := lat.NX, lat.NY; nx > 2 && ny > 2 {
		// Inner cells are those whose 1-neighbourhood stays inside the
		// interior; the strips are the west and east columns over the full
		// y extent, then the south and north rows between them.
		s.inner = region{1, nx - 1, 1, ny - 1}
		s.strips = []region{{0, 1, 0, ny}, {nx - 1, nx, 0, ny}, {1, nx - 1, 0, 1}, {1, nx - 1, ny - 1, ny}}
		// The hook finishes allocated planes 3…NY−2.
		s.tail = slices.Compact([]int{0, 1, 2, ny - 1, ny, ny + 1})
		s.stripDone = s.fillStrip
	} else {
		s.strips = []region{{0, nx, 0, ny}}
		for ay := 0; ay < lat.AY; ay++ {
			s.tail = append(s.tail, ay)
		}
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

// planAxis derives one axis' exchange: a message sent towards plus carries
// tagPlus, so the minus neighbour's face arrives under tagPlus and the
// plus neighbour's under tagMinus.
func (s *Solver) planAxis(minusFace, plusFace core.Face, tagMinus, tagPlus, dm, dp int) axisPlan {
	me := s.Comm.Rank()
	if dm == me && dp == me {
		return axisPlan{wrap: true}
	}
	side := func(face core.Face, peer, sendTag, recvTag int) *Link {
		if peer < 0 {
			return nil
		}
		return NewLink(s.Lat, face, peer, sendTag, recvTag)
	}
	return axisPlan{
		minus: side(minusFace, dm, tagMinus, tagPlus),
		plus:  side(plusFace, dp, tagPlus, tagMinus),
	}
}

// applyLocalBCs fills the halos that do not come from neighbours, whole:
// the z axis (periodic or face conditions), the global-face conditions
// of edge ranks and the wraps of axes with one rank along them. A rank runs it on its first step only; later steps fill
// the halo from their sweeps.
func (s *Solver) applyLocalBCs() {
	defer s.tr.Scope(trace.TrackStep, "bc")()
	t := time.Now()
	s.fill.Apply(s.Lat)
	s.faceTime += time.Since(t)
}

// fillStrip is the hook of the west and east columns, swept together in
// y order after the inner region: once their rows y−2…y are swept,
// allocated plane y (3 ≤ y ≤ NY−2) is final, so its fill runs: its x-
// and z-face conditions in fill order, a wrap filling its edge cells
// alone (core.Lattice.PeriodicEdges).
func (s *Solver) fillStrip(y int) {
	if y < 3 || y > s.Lat.NY-2 {
		return
	}
	t := time.Now()
	s.fill.ApplyPlane(&s.next, y)
	s.faceTime += time.Since(t)
}

// SimTime is the device's modelled time of the rank's steps so far; 0
// without a device.
func (s *Solver) SimTime() float64 { return s.sim }

// FaceTime is the time the rank has spent on its own halo fill: the whole
// fills, the planes its sweeps fill and the tails.
func (s *Solver) FaceTime() time.Duration { return s.faceTime }

// post packs one axis' two faces straight into their links' send slots
// and hands them to the transport (sends are eager and never block),
// under the given MPI-track span. An axis the rank wraps itself has no
// links: its wrap is part of the rank's fill.
//
//lbm:hot
func (s *Solver) post(axis int, span string) {
	p := &s.axes[axis]
	if p.wrap {
		return
	}
	defer s.tr.Scope(trace.TrackMPI, span)()
	if p.plus != nil {
		p.plus.Post(s.Comm, s.Lat)
	}
	if p.minus != nil {
		p.minus.Post(s.Comm, s.Lat)
	}
}

// collect receives the two faces the neighbours posted on this axis and
// unpacks them into the halo. The span is closed by defer so a rank
// aborted inside Recv (a peer died, a face failed its checksum) still
// nests.
//
//lbm:hot
func (s *Solver) collect(axis int, span string) {
	p := &s.axes[axis]
	if p.wrap {
		return
	}
	defer s.tr.Scope(trace.TrackMPI, span)()
	if p.minus != nil {
		p.minus.Collect(s.Comm, s.Lat)
	}
	if p.plus != nil {
		p.plus.Collect(s.Comm, s.Lat)
	}
}

// Step advances the distributed simulation by one time step:
// post x → inner region → collect x → post y, collect y → boundary
// strips.
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
func (s *Solver) advance() {
	l := s.Lat
	if !s.filled {
		s.applyLocalBCs()
	}
	s.next = l.Ahead()
	s.post(0, "halo-x")
	if r := s.inner; r.x1 > r.x0 {
		end := s.tr.Scope(trace.TrackStep, "compute-inner")
		l.SweepRows(r.x0, r.x1, r.y0, r.y1, s.wrap, nil)
		end()
	}
	s.collect(0, "halo-x-wait")
	// The y faces pack their corners from the x halo just received.
	s.post(1, "halo-y")
	s.collect(1, "halo-y")
	end := s.tr.Scope(trace.TrackStep, "compute-boundary")
	s.sweepStrips()
	end()
	s.fillTail()
	l.CompleteStep()
	s.filled = true
}

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

// sweepStrips sweeps the boundary strips: with an inner region, the west
// and east columns together row by row under fillStrip, then the south
// and north rows; without one, the whole block.
func (s *Solver) sweepStrips() {
	l := s.Lat
	if s.stripDone == nil {
		for _, r := range s.strips {
			l.SweepRows(r.x0, r.x1, r.y0, r.y1, s.wrap, nil)
		}
		return
	}
	w, e := s.strips[0], s.strips[1]
	for y := 0; y < l.NY; y++ {
		l.SweepRows(w.x0, w.x1, y, y+1, s.wrap, nil)
		l.SweepRows(e.x0, e.x1, y, y+1, s.wrap, nil)
		s.stripDone(y)
	}
	for _, r := range s.strips[2:] {
		l.SweepRows(r.x0, r.x1, r.y0, r.y1, s.wrap, nil)
	}
}

// fillTail runs, after every sweep, every condition of the fill in order
// on the planes no hook finished, and the y-face conditions whole.
func (s *Solver) fillTail() {
	defer s.tr.Scope(trace.TrackStep, "bc")()
	t := time.Now()
	s.fill.ApplyTail(&s.next, s.tail)
	s.faceTime += time.Since(t)
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
