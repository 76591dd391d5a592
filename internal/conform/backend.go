package conform

import (
	"fmt"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/sunway"
	"sunwaylb/internal/swlb"
)

// LidSpeed and InletSpeed are the fixed driving velocities of the lid and
// channel regimes (small Mach so every generated case stays stable).
const (
	LidSpeed   = 0.04
	InletSpeed = 0.04
)

// Backend is one implementation under test: it runs a Case from scratch
// and returns the gathered global macroscopic field.
type Backend struct {
	// Name identifies the backend in reports ("swlb/full", "psolve/2x2").
	Name string
	// Run executes the case. An error means the backend cannot represent
	// the case (e.g. too few cells for the rank layout) — the oracle
	// skips it — while a mismatch is reported by the comparator.
	Run func(c *Case) (*core.MacroField, error)
}

// conds builds the boundary-condition set of the case's regime in the
// fixed face order psolve applies them (XMin, XMax, YMin, YMax, ZMin,
// ZMax), so serial and distributed runs agree bit-for-bit at halo corners
// where a later condition overwrites an earlier one.
func (c *Case) conds() []boundary.Condition {
	switch c.BC {
	case BCLid:
		return []boundary.Condition{
			&boundary.NoSlip{Face: core.FaceXMin},
			&boundary.NoSlip{Face: core.FaceXMax},
			&boundary.NoSlip{Face: core.FaceYMin},
			&boundary.NoSlip{Face: core.FaceYMax},
			&boundary.NoSlip{Face: core.FaceZMin},
			&boundary.MovingNoSlip{Face: core.FaceZMax, U: [3]float64{LidSpeed, 0, 0}},
		}
	case BCChannel:
		return []boundary.Condition{
			&boundary.VelocityInlet{Face: core.FaceXMin, Rho: 1, U: [3]float64{InletSpeed, 0, 0}},
			&boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
			&boundary.NoSlip{Face: core.FaceYMin},
			&boundary.NoSlip{Face: core.FaceYMax},
		}
	}
	return nil
}

// periodic reports the per-axis periodicity of the regime.
func (c *Case) periodic() (px, py, pz bool) {
	switch c.BC {
	case BCPeriodic:
		return true, true, true
	case BCChannel:
		return false, false, true
	}
	return false, false, false
}

// faceBC renders conds as the map psolve consumes.
func (c *Case) faceBC() map[core.Face]boundary.Condition {
	conds := c.conds()
	if len(conds) == 0 {
		return nil
	}
	m := make(map[core.Face]boundary.Condition, len(conds))
	for _, cond := range conds {
		switch bc := cond.(type) {
		case *boundary.NoSlip:
			m[bc.Face] = bc
		case *boundary.MovingNoSlip:
			m[bc.Face] = bc
		case *boundary.VelocityInlet:
			m[bc.Face] = bc
		case *boundary.PressureOutlet:
			m[bc.Face] = bc
		}
	}
	return m
}

// Options derives the distributed-solver configuration for the case on a
// px×py rank grid.
func (c *Case) Options(px, py int) psolve.Options {
	perX, perY, perZ := c.periodic()
	return psolve.Options{
		GNX: c.NX, GNY: c.NY, GNZ: c.NZ,
		PX: px, PY: py,
		Tau:         c.Tau,
		Smagorinsky: c.Smagorinsky,
		Force:       c.Force,
		PeriodicX:   perX, PeriodicY: perY, PeriodicZ: perZ,
		FaceBC: c.faceBC(),
		Walls:  c.Walls(),
		Init:   c.Init(),
	}
}

// WallsFunc and InitFunc are the geometry and initial-condition
// signatures shared by all backends (global coordinates).
type WallsFunc = core.WallsFunc

// InitFunc supplies the initial macroscopic state per global cell.
type InitFunc = core.InitFunc

// buildLattice builds a standalone lattice for the case's dimensions and
// physics with the given geometry and initial conditions, through the
// builder psolve and the patch world build their blocks with. The
// metamorphic properties pass transformed walls/init here.
func (c *Case) buildLattice(walls WallsFunc, init InitFunc) (*core.Lattice, error) {
	l, err := core.BuildLattice(&lattice.D3Q19, core.Box{NX: c.NX, NY: c.NY, NZ: c.NZ}, c.Tau, walls, init)
	if err != nil {
		return nil, err
	}
	l.Smagorinsky = c.Smagorinsky
	l.Force = c.Force
	return l, nil
}

// newLattice builds the case's canonical standalone lattice.
func (c *Case) newLattice() (*core.Lattice, error) {
	return c.buildLattice(c.Walls(), c.Init())
}

// advance runs steps time steps on a standalone lattice: boundary fill in
// psolve's order, then one kernel invocation.
func (c *Case) advance(l *core.Lattice, conds []boundary.Condition, steps int, step func(l *core.Lattice)) {
	bcs := c.bcSet(conds)
	for s := 0; s < steps; s++ {
		bcs.Apply(l)
		step(l)
	}
}

// bcSet orders the halo fill of a standalone lattice as the one-rank
// world does (psolve.HaloSet): periodic z wrap, face conditions, then the
// periodic x and y wraps that stand in for the halo exchange.
func (c *Case) bcSet(conds []boundary.Condition) *boundary.Set {
	perX, perY, perZ := c.periodic()
	return psolve.HaloSet(perX, perY, perZ, conds)
}

// RunSerial executes the case on a standalone lattice, advancing with
// step (e.g. (*core.Lattice).StepFused). It is the harness's reference
// implementation: no mpi, no decomposition, no stepper indirection.
func (c *Case) RunSerial(step func(l *core.Lattice)) (*core.MacroField, error) {
	l, err := c.newLattice()
	if err != nil {
		return nil, err
	}
	c.advance(l, c.conds(), c.Steps, step)
	return l.ComputeMacro(), nil
}

// Reference runs the case through the serial fused kernel — the oracle
// every other backend is compared against.
func (c *Case) Reference() (*core.MacroField, error) {
	return c.RunSerial((*core.Lattice).StepFused)
}

// RunSerialAA executes the case on a standalone AA-pattern (in-place)
// lattice: workers > 1 drives the steps through a persistent worker pool
// that runs the boundary conditions inside its sweep (Pool.StepFaces)
// instead of the serial sweep. All variants must match the double-buffer
// reference bit-for-bit at every step parity.
func (c *Case) RunSerialAA(workers int) (*core.MacroField, error) {
	l, err := c.newLattice()
	if err != nil {
		return nil, err
	}
	l.EnableAA()
	if workers > 1 {
		p := core.NewPool(l, workers)
		defer p.Close()
		bcs := c.bcSet(c.conds())
		for s := 0; s < c.Steps; s++ {
			p.StepFaces(bcs)
		}
	} else {
		c.advance(l, c.conds(), c.Steps, (*core.Lattice).StepFused)
	}
	return l.ComputeMacro(), nil
}

// testChip returns the small simulated core group every swlb conformance
// backend runs on: 4 CPEs with SW26010-sized 64 KiB LDM, so CPE blocking,
// sharing and DMA paths are all exercised without the cost of 64 cores.
func testChip() sunway.ChipSpec { return sunway.TestChip(4, 64*1024) }

// swlbBackend runs the case through the serial driver with one swlb
// optimization stage as the kernel: the engine's functional Step moves
// the populations through the simulated core group. The engine is built
// at the first step, after the first condition pass has set the halo's
// flags, so its column partition sees them.
func swlbBackend(name string, opt swlb.Options) Backend {
	return Backend{Name: name, Run: func(c *Case) (*core.MacroField, error) {
		var e *swlb.Engine
		return c.RunSerial(func(l *core.Lattice) {
			if e == nil {
				var err error
				if e, err = swlb.New(l, testChip(), opt); err != nil {
					panic(err) // the test chip holds every stage's footprint
				}
			}
			e.Step()
		})
	}}
}

// swlbStages is the Fig. 8 ablation ladder: each entry switches on one
// more optimization, and every rung must compute the identical flow.
func swlbStages() []struct {
	Name string
	Opt  swlb.Options
} {
	return []struct {
		Name string
		Opt  swlb.Options
	}{
		{"swlb/mpe-baseline", swlb.BaselineOptions()},
		{"swlb/cpe-unfused", swlb.Options{UseCPEs: true, ComputeEff: 0.1, BZ: 70}},
		{"swlb/cpe-fused", swlb.Options{UseCPEs: true, Fused: true, ComputeEff: 0.3, BZ: 70}},
		{"swlb/fused-ysharing", swlb.Options{UseCPEs: true, Fused: true, YSharing: true, ComputeEff: 0.55, BZ: 70}},
		{"swlb/full", swlb.DefaultOptions()},
	}
}

// psolveBackend runs the case on a px×py rank grid through the in-process
// mpi world: AA ranks under the overlapped exchange.
func psolveBackend(px, py int) Backend {
	name := fmt.Sprintf("psolve/%dx%d", px, py)
	return Backend{Name: name, Run: func(c *Case) (*core.MacroField, error) {
		if c.NX < px || c.NY < py {
			return nil, fmt.Errorf("conform: %s needs nx≥%d, ny≥%d", name, px, py)
		}
		return psolve.Run(c.Options(px, py), c.Steps)
	}}
}

// Backends returns the full conformance matrix (every entry must match
// the serial reference bit-for-bit):
//
//   - the unfused two-pass kernel and the default stepping path of every
//     single-lattice consumer (AA through a two-worker pool),
//   - the in-place AA-pattern kernel: serial, and through a three-worker
//     pool whose row bands come out uneven,
//   - the single-rank distributed solver (validates the mpi plumbing),
//   - every swlb optimization stage's functional step on a simulated
//     Sunway core group, through the serial driver,
//   - multi-rank 1-D and 2-D decompositions at 2, 4 and 8 ranks (AA
//     ranks, overlapped exchange),
//   - the patch-decomposed world, which is the 3-D oracle: homogeneous
//     AA patches on a 2-D tiling and on three 3-D tilings (1x1x2 over
//     two workers: every z face, the wrap included, is a link; 1x2x2
//     over two: z faces are same-owner copies, y faces links; 2x2x2
//     over one: every face is a same-owner copy), mixed core/swlb/gpu
//     owners (each device prices its patches' steps), and mixed owners
//     with a forced migration after every step, so patches move at both
//     parities.
func Backends() []Backend {
	bs := []Backend{
		{Name: "core/unfused", Run: func(c *Case) (*core.MacroField, error) {
			return c.RunSerial((*core.Lattice).StepUnfused)
		}},
		{Name: "core/pool", Run: func(c *Case) (*core.MacroField, error) {
			return c.RunSerialAA(2)
		}},
		{Name: "core/aa", Run: func(c *Case) (*core.MacroField, error) {
			return c.RunSerialAA(1)
		}},
		{Name: "core/aa-pool", Run: func(c *Case) (*core.MacroField, error) {
			return c.RunSerialAA(3)
		}},
		psolveBackend(1, 1),
		psolveBackend(2, 1),
		psolveBackend(1, 2),
		psolveBackend(4, 1),
		psolveBackend(2, 2),
		psolveBackend(8, 1),
		psolveBackend(4, 2),
	}
	for _, st := range swlbStages() {
		bs = append(bs, swlbBackend(st.Name, st.Opt))
	}
	bs = append(bs,
		patchBackend("patch/2x2x1", 2, 2, 1, 0, coreWorkers(2)),
		patchBackend("patch/1x1x2", 1, 1, 2, 0, coreWorkers(2)),
		patchBackend("patch/1x2x2", 1, 2, 2, 0, coreWorkers(2)),
		patchBackend("patch/2x2x2", 2, 2, 2, 0, coreWorkers(1)),
		patchBackend("patch/mixed", 2, 2, 2, 0, patchMixedWorkers),
		patchBackend("patch/mixed-migrate", 2, 1, 2, 1, patchMixedWorkers),
	)
	return bs
}

// BackendNames lists the matrix in order (for -run matching diagnostics).
func BackendNames() []string {
	bs := Backends()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}
