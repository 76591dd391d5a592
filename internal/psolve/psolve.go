// Package psolve is the distributed LBM solver: it combines the core
// kernel, the 2-D domain decomposition and the mpi runtime into multi-rank
// simulations with halo exchange, in both the sequential scheme (exchange,
// then compute — Fig. 6(1)) and the paper's on-the-fly scheme (overlap the
// inner-region computation with communication, then finish the boundary
// strips — Fig. 6(2)). Both schemes produce bit-identical states; they
// differ only in when communication happens relative to computation, which
// is what the performance model in internal/scaling charges for.
package psolve

import (
	"fmt"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
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
	Walls func(gx, gy, gz int) bool
	// Init supplies the initial macroscopic state per global cell;
	// nil means ρ=1, u=0.
	Init func(gx, gy, gz int) (rho, ux, uy, uz float64)
	// OnTheFly selects the overlapped halo-exchange scheme.
	OnTheFly bool
	// Kernel selects the local compute kernel: "" or "fused" is the
	// double-buffer pull kernel, "aa" the in-place AA-pattern kernel
	// (single distribution array, both storage phases handled
	// transparently by the halo exchange and checkpoint paths).
	Kernel string
	// Restore, if non-nil, initialises each rank's sub-block from this
	// global lattice (e.g. one read back by swio.ReadCheckpoint),
	// overriding Walls and Init.
	Restore *core.Lattice
	// Stepper, if non-nil, builds a custom kernel driver per rank (e.g.
	// the simulated Sunway engine from internal/swlb), reproducing the
	// paper's full MPI+Athread stack. The sequential halo-exchange
	// scheme is used around it. Rebuild is called once after the first
	// halo exchange so the driver sees the final wall flags.
	Stepper func(lat *core.Lattice) (Stepper, error)
	// Trace, if non-nil, records per-rank timelines (steps, halo
	// exchange, compute phases). Run installs it on the world it
	// creates; supervised runs install it through SupervisorOptions.
	Trace *trace.Tracer
}

// traceSetter is implemented by steppers that can record their internal
// phases (CPE/MPE kernels, DMA counters, GPU copies) onto the rank's
// timeline. New type-asserts it so Options.Stepper needs no signature
// change.
type traceSetter interface {
	SetTrace(tr *trace.RankTracer)
}

// Stepper advances the local lattice one time step (halos already
// exchanged) and returns a simulated or measured step time.
type Stepper interface {
	Step() float64
	// Rebuild refreshes any geometry-derived state after flags change.
	Rebuild()
}

// Solver is the per-rank state of a distributed simulation.
type Solver struct {
	Opts  Options
	Comm  *mpi.Comm
	Cart  *mpi.Cart2D
	Block decomp.Block
	Lat   *core.Lattice

	bcs []faceBC

	stepper      Stepper
	stepperFresh bool
	// SimTime accumulates the stepper-reported (e.g. simulated Sunway)
	// time across steps.
	SimTime float64

	// StragglerFactor inflates this rank's modelled (Sim-clock) step
	// time; 0 or 1 means nominal speed. The supervisor sets it from the
	// fault plan's straggle@ directives so trace.Analyze can flag the
	// slow rank even though the injection only affects the performance
	// model, not the host wall clock.
	StragglerFactor float64

	// tr is this rank's trace handle (nil-safe no-op when tracing is
	// off); simCursor is the rank's position on the modelled Sim clock;
	// lastSimDt is the most recent stepper-reported step time.
	tr        *trace.RankTracer
	simCursor float64
	lastSimDt float64

	// Scratch exchange buffers, reused across steps (messages are
	// cloned before handing to the transport).
	sendX, sendY [2][]float64
	flagX, flagY [2][]core.CellType
	rflX, rflY   [2][]core.CellType
}

type faceBC struct {
	cond boundary.Condition
}

// New builds the per-rank solver: decomposes the domain, allocates the
// local lattice (block + halo), applies geometry and initial conditions.
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
	lat, err := core.NewLattice(&lattice.D3Q19, blk.NX, blk.NY, blk.NZ, opts.Tau)
	if err != nil {
		return nil, err
	}
	lat.Smagorinsky = opts.Smagorinsky
	lat.Force = opts.Force
	switch opts.Kernel {
	case "", "fused":
	case "aa":
		// Convert before any restore so the phase-aware writes land in
		// the layout the stepper will read.
		lat.EnableAA()
	default:
		return nil, fmt.Errorf("psolve: unknown kernel %q (want \"fused\" or \"aa\")", opts.Kernel)
	}

	s := &Solver{Opts: opts, Comm: c, Cart: cart, Block: blk, Lat: lat, tr: c.Trace()}
	// Resume the modelled clock where a previous attempt (before a
	// supervised restart) left off, so attempts lay out consecutively.
	s.simCursor = s.tr.SimWatermark()
	if opts.Restore != nil {
		if err := s.restoreFrom(opts.Restore); err != nil {
			return nil, err
		}
	} else {
		s.applyGeometry()
		s.applyInit()
	}
	s.collectBCs()
	s.allocBuffers()
	if opts.Stepper != nil {
		st, err := opts.Stepper(lat)
		if err != nil {
			return nil, err
		}
		s.stepper = st
		s.stepperFresh = true
		if ts, ok := st.(traceSetter); ok {
			ts.SetTrace(s.tr)
		}
	}
	return s, nil
}

func (s *Solver) applyGeometry() {
	if s.Opts.Walls == nil {
		return
	}
	b := s.Block
	for y := 0; y < b.NY; y++ {
		for x := 0; x < b.NX; x++ {
			for z := 0; z < b.NZ; z++ {
				if s.Opts.Walls(b.X0+x, b.Y0+y, b.Z0+z) {
					s.Lat.SetWall(x, y, z)
				}
			}
		}
	}
}

func (s *Solver) applyInit() {
	if s.Opts.Init == nil {
		return
	}
	b := s.Block
	for y := 0; y < b.NY; y++ {
		for x := 0; x < b.NX; x++ {
			for z := 0; z < b.NZ; z++ {
				if s.Lat.CellTypeAt(x, y, z) != core.Fluid {
					continue
				}
				rho, ux, uy, uz := s.Opts.Init(b.X0+x, b.Y0+y, b.Z0+z)
				s.Lat.SetCell(x, y, z, rho, ux, uy, uz)
			}
		}
	}
}

// collectBCs figures out which global-face conditions this rank applies.
func (s *Solver) collectBCs() {
	cx, cy := s.Cart.Coords()
	touches := map[core.Face]bool{
		core.FaceXMin: cx == 0 && !s.Opts.PeriodicX,
		core.FaceXMax: cx == s.Opts.PX-1 && !s.Opts.PeriodicX,
		core.FaceYMin: cy == 0 && !s.Opts.PeriodicY,
		core.FaceYMax: cy == s.Opts.PY-1 && !s.Opts.PeriodicY,
		core.FaceZMin: !s.Opts.PeriodicZ,
		core.FaceZMax: !s.Opts.PeriodicZ,
	}
	for _, f := range []core.Face{core.FaceXMin, core.FaceXMax, core.FaceYMin,
		core.FaceYMax, core.FaceZMin, core.FaceZMax} {
		if !touches[f] {
			continue
		}
		if cond, ok := s.Opts.FaceBC[f]; ok && cond != nil {
			s.bcs = append(s.bcs, faceBC{cond: cond})
		}
	}
}

func (s *Solver) allocBuffers() {
	q := s.Lat.Desc.Q
	nx := s.Lat.FaceCells(core.FaceXMin)
	ny := s.Lat.FaceCells(core.FaceYMin)
	for i := 0; i < 2; i++ {
		s.sendX[i] = make([]float64, q*nx)
		s.flagX[i] = make([]core.CellType, nx)
		s.rflX[i] = make([]core.CellType, nx)
		s.sendY[i] = make([]float64, q*ny)
		s.flagY[i] = make([]core.CellType, ny)
		s.rflY[i] = make([]core.CellType, ny)
	}
}

// applyLocalBCs fills halos that do not come from neighbours: the z axis
// (periodic or face conditions) and the global-face conditions of edge
// ranks.
func (s *Solver) applyLocalBCs() {
	if s.Opts.PeriodicZ {
		s.Lat.PeriodicAxis(2)
	}
	for _, bc := range s.bcs {
		bc.cond.Apply(s.Lat)
	}
}

// exchangeAxis swaps one axis' face layers with the two neighbours. When
// the neighbour is this rank itself (periodic with one rank along the
// axis), it short-circuits to a local periodic wrap.
func (s *Solver) exchangeAxis(axis int) {
	var minusFace, plusFace core.Face
	var send [2][]float64
	var flg, rfl [2][]core.CellType
	var tagToPlus, tagToMinus int
	var dm, dp int
	if axis == 0 {
		minusFace, plusFace = core.FaceXMin, core.FaceXMax
		send, flg, rfl = s.sendX, s.flagX, s.rflX
		tagToPlus, tagToMinus = tagXPlus, tagXMinus
		dm, dp = s.Cart.Neighbor(-1, 0), s.Cart.Neighbor(1, 0)
	} else {
		minusFace, plusFace = core.FaceYMin, core.FaceYMax
		send, flg, rfl = s.sendY, s.flagY, s.rflY
		tagToPlus, tagToMinus = tagYPlus, tagYMinus
		dm, dp = s.Cart.Neighbor(0, -1), s.Cart.Neighbor(0, 1)
	}
	me := s.Comm.Rank()
	if dm == me && dp == me {
		// Single rank along this axis with periodic wrap.
		s.Lat.PeriodicAxis(axis)
		return
	}
	if s.tr != nil {
		defer s.tr.Scope(trace.TrackMPI, haloName(axis))()
	}
	var reqs []*mpi.Request
	if dp >= 0 {
		s.Lat.PackFace(plusFace, send[1], flg[1])
		reqs = append(reqs, s.Comm.Isend(dp, tagToPlus, cloneMsg(send[1], flg[1])))
	}
	if dm >= 0 {
		s.Lat.PackFace(minusFace, send[0], flg[0])
		reqs = append(reqs, s.Comm.Isend(dm, tagToMinus, cloneMsg(send[0], flg[0])))
	}
	if dm >= 0 {
		m := s.Comm.Recv(dm, tagToPlus)
		s.Lat.UnpackFace(minusFace, m.Data, decodeFlags(m.Aux, rfl[0]))
	}
	if dp >= 0 {
		m := s.Comm.Recv(dp, tagToMinus)
		s.Lat.UnpackFace(plusFace, m.Data, decodeFlags(m.Aux, rfl[1]))
	}
	mpi.WaitAll(reqs...)
}

// haloName labels a halo-exchange span by decomposed axis.
func haloName(axis int) string {
	if axis == 0 {
		return "halo-x"
	}
	return "halo-y"
}

// cloneMsg copies the pack buffers into a fresh message (the scratch
// buffers are reused every step, and the transport passes references).
func cloneMsg(data []float64, flags []core.CellType) mpi.Message {
	d := append([]float64(nil), data...)
	a := make([]byte, len(flags))
	for i, f := range flags {
		a[i] = byte(f)
	}
	return mpi.Message{Data: d, Aux: a}
}

func decodeFlags(aux []byte, out []core.CellType) []core.CellType {
	for i := range out {
		out[i] = core.CellType(aux[i])
	}
	return out
}

// exchangeAsync starts the sends of one axis and returns the pending
// receives; used by the on-the-fly scheme to overlap with computation.
func (s *Solver) exchangeAsyncStart(axis int) (recvM, recvP *mpi.Request, dm, dp int) {
	var minusFace, plusFace core.Face
	var send [2][]float64
	var flg [2][]core.CellType
	var tagToPlus, tagToMinus int
	if axis == 0 {
		minusFace, plusFace = core.FaceXMin, core.FaceXMax
		send, flg = s.sendX, s.flagX
		tagToPlus, tagToMinus = tagXPlus, tagXMinus
		dm, dp = s.Cart.Neighbor(-1, 0), s.Cart.Neighbor(1, 0)
	} else {
		minusFace, plusFace = core.FaceYMin, core.FaceYMax
		send, flg = s.sendY, s.flagY
		tagToPlus, tagToMinus = tagYPlus, tagYMinus
		dm, dp = s.Cart.Neighbor(0, -1), s.Cart.Neighbor(0, 1)
	}
	me := s.Comm.Rank()
	if dm == me && dp == me {
		s.Lat.PeriodicAxis(axis)
		return nil, nil, -1, -1
	}
	if dp >= 0 {
		s.Lat.PackFace(plusFace, send[1], flg[1])
		s.Comm.Isend(dp, tagToPlus, cloneMsg(send[1], flg[1]))
		recvP = s.Comm.Irecv(dp, tagToMinus)
	}
	if dm >= 0 {
		s.Lat.PackFace(minusFace, send[0], flg[0])
		s.Comm.Isend(dm, tagToMinus, cloneMsg(send[0], flg[0]))
		recvM = s.Comm.Irecv(dm, tagToPlus)
	}
	return recvM, recvP, dm, dp
}

func (s *Solver) exchangeAsyncFinish(axis int, recvM, recvP *mpi.Request) {
	var minusFace, plusFace core.Face
	var rfl [2][]core.CellType
	if axis == 0 {
		minusFace, plusFace = core.FaceXMin, core.FaceXMax
		rfl = s.rflX
	} else {
		minusFace, plusFace = core.FaceYMin, core.FaceYMax
		rfl = s.rflY
	}
	if recvM != nil {
		m := recvM.Wait()
		s.Lat.UnpackFace(minusFace, m.Data, decodeFlags(m.Aux, rfl[0]))
	}
	if recvP != nil {
		m := recvP.Wait()
		s.Lat.UnpackFace(plusFace, m.Data, decodeFlags(m.Aux, rfl[1]))
	}
}

// Step advances the distributed simulation by one time step.
//
// With tracing on, each step records a wall-clock "step" span plus a
// modelled Sim-clock "step" span: the stepper-reported device time when
// a stepper exists, the wall duration otherwise, either way inflated by
// StragglerFactor — that is how an injected straggler (which slows the
// performance model, not the host) becomes visible to trace.Analyze.
func (s *Solver) Step() {
	if s.tr != nil {
		t0 := s.tr.Now()
		s.tr.Begin(trace.Wall, trace.TrackStep, "step", t0)
		// Deferred so a rank aborted mid-step (a peer died, the world
		// went down) still closes its span during the panic unwind.
		defer func() {
			t1 := s.tr.Now()
			s.tr.End(trace.Wall, trace.TrackStep, t1)
			dt := t1 - t0 // modelled step time defaults to the wall duration
			if s.stepper != nil {
				dt = s.lastSimDt
			}
			if s.StragglerFactor > 1 {
				dt *= s.StragglerFactor
			}
			s.tr.Span(trace.Sim, trace.TrackStep, "step", s.simCursor, s.simCursor+dt)
			s.simCursor += dt
		}()
	}
	if s.stepper != nil {
		s.stepWithStepper()
	} else if s.Opts.OnTheFly {
		s.stepOnTheFly()
	} else {
		s.stepSequential()
	}
}

// stepWithStepper runs the sequential exchange around a custom kernel
// driver (the simulated Sunway core group).
func (s *Solver) stepWithStepper() {
	s.tracedBCs()
	s.exchangeAxis(0)
	s.exchangeAxis(1)
	if s.stepperFresh {
		// The first exchange may have imported wall flags from the
		// neighbours and the boundary conditions; refresh the
		// driver's geometry-derived state before its first step.
		s.stepper.Rebuild()
		s.stepperFresh = false
	}
	var done func()
	if s.tr != nil {
		done = s.tr.Scope(trace.TrackStep, "compute")
	}
	dt := s.stepper.Step()
	if done != nil {
		done()
	}
	s.SimTime += dt
	s.lastSimDt = dt
}

// tracedBCs applies the local boundary conditions under a span.
func (s *Solver) tracedBCs() {
	if s.tr != nil {
		defer s.tr.Scope(trace.TrackStep, "bc")()
	}
	s.applyLocalBCs()
}

// stepSequential is the original scheme of Fig. 6(1): halo exchange fully
// completes, then the whole subdomain is computed.
func (s *Solver) stepSequential() {
	s.tracedBCs()
	s.exchangeAxis(0)
	s.exchangeAxis(1)
	var done func()
	if s.tr != nil {
		done = s.tr.Scope(trace.TrackStep, "compute")
	}
	s.Lat.StepFused()
	if done != nil {
		done()
	}
}

// stepOnTheFly is the overlapped scheme of Fig. 6(2): the inner region
// (which depends on no x/y halo) is computed while the halo exchange is in
// flight; the boundary strips follow once the halo has arrived. The final
// state is bit-identical to stepSequential.
func (s *Solver) stepOnTheFly() {
	s.tracedBCs()
	l := s.Lat
	// Start the x exchange.
	rxm, rxp, _, _ := s.exchangeAsyncStart(0)
	// Inner region: cells whose 1-neighbourhood stays inside the
	// interior, i.e. x∈[1,NX-1), y∈[1,NY-1).
	if l.NX > 2 && l.NY > 2 {
		var done func()
		if s.tr != nil {
			done = s.tr.Scope(trace.TrackStep, "compute-inner")
		}
		l.StepRegion(1, l.NX-1, 1, l.NY-1)
		if done != nil {
			done()
		}
	}
	// Finish x; then the y exchange can pack its corners. The span is
	// closed by defer so an abort inside Wait still nests.
	func() {
		if s.tr != nil {
			defer s.tr.Scope(trace.TrackMPI, "halo-x-wait")()
		}
		s.exchangeAsyncFinish(0, rxm, rxp)
	}()
	s.exchangeAxis(1)
	// Boundary strips.
	var done func()
	if s.tr != nil {
		done = s.tr.Scope(trace.TrackStep, "compute-boundary")
	}
	if l.NX > 2 && l.NY > 2 {
		l.StepRegion(0, 1, 0, l.NY)         // west column, full y
		l.StepRegion(l.NX-1, l.NX, 0, l.NY) // east column, full y
		l.StepRegion(1, l.NX-1, 0, 1)       // south strip
		l.StepRegion(1, l.NX-1, l.NY-1, l.NY)
	} else {
		l.StepRegion(0, l.NX, 0, l.NY)
	}
	l.CompleteStep()
	if done != nil {
		done()
	}
}

// GatherMacro assembles the global macroscopic fields on rank root;
// other ranks return nil.
func (s *Solver) GatherMacro(root int) *core.MacroField {
	local := s.Lat.ComputeMacro()
	b := s.Block
	header := []float64{float64(b.X0), float64(b.Y0), float64(b.Z0),
		float64(b.NX), float64(b.NY), float64(b.NZ)}
	payload := header
	payload = append(payload, local.Rho...)
	payload = append(payload, local.Ux...)
	payload = append(payload, local.Uy...)
	payload = append(payload, local.Uz...)
	msgs := s.Comm.Gather(root, mpi.Message{Data: payload})
	if msgs == nil {
		return nil
	}
	g := &core.MacroField{
		NX: s.Opts.GNX, NY: s.Opts.GNY, NZ: s.Opts.GNZ,
		Rho: make([]float64, s.Opts.GNX*s.Opts.GNY*s.Opts.GNZ),
		Ux:  make([]float64, s.Opts.GNX*s.Opts.GNY*s.Opts.GNZ),
		Uy:  make([]float64, s.Opts.GNX*s.Opts.GNY*s.Opts.GNZ),
		Uz:  make([]float64, s.Opts.GNX*s.Opts.GNY*s.Opts.GNZ),
	}
	for _, m := range msgs {
		h := m.Data[:6]
		x0, y0 := int(h[0]), int(h[1])
		nx, ny, nz := int(h[3]), int(h[4]), int(h[5])
		n := nx * ny * nz
		rho := m.Data[6 : 6+n]
		ux := m.Data[6+n : 6+2*n]
		uy := m.Data[6+2*n : 6+3*n]
		uz := m.Data[6+3*n : 6+4*n]
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				for z := 0; z < nz; z++ {
					li := (y*nx+x)*nz + z
					gi := g.Idx(x0+x, y0+y, z)
					g.Rho[gi] = rho[li]
					g.Ux[gi] = ux[li]
					g.Uy[gi] = uy[li]
					g.Uz[gi] = uz[li]
				}
			}
		}
	}
	return g
}

// GlobalMass returns the total mass across all ranks (on every rank).
func (s *Solver) GlobalMass() float64 {
	return s.Comm.AllreduceSum(s.Lat.TotalMass())
}

// Run executes a full distributed simulation with the given number of
// ranks and steps and returns the gathered global macroscopic field from
// rank 0.
func Run(opts Options, steps int) (*core.MacroField, error) {
	if opts.PX == 0 || opts.PY == 0 {
		opts.PX, opts.PY = mpi.FactorGrid(1, opts.GNX, opts.GNY)
	}
	w, err := mpi.NewWorld(opts.PX * opts.PY)
	if err != nil {
		return nil, err
	}
	w.SetTracer(opts.Trace)
	var result *core.MacroField
	err = mpi.RunWorld(w, func(c *mpi.Comm) error {
		s, err := New(c, opts)
		if err != nil {
			return err
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
		if g := s.GatherMacro(0); g != nil {
			result = g
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}
