package conform

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/swio"
)

// errSkip marks an oracle as not applicable to a case (e.g. momentum
// conservation on a driven cavity). Skips are counted, never failures,
// and a shrink candidate whose oracle skips is treated as non-failing.
var errSkip = errors.New("conform: not applicable")

// skipf builds a skip with context.
func skipf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, errSkip)...)
}

// IsSkip reports whether an oracle outcome means "not applicable".
func IsSkip(err error) bool { return errors.Is(err, errSkip) }

// Ctx carries one case through the oracle list, memoizing the serial
// reference so the differential matrix computes it once.
type Ctx struct {
	Case *Case

	refDone bool
	ref     *core.MacroField
	refErr  error

	// Resumed maps a restart property to the step its interrupted run
	// actually resumed from on this case.
	Resumed map[string]int
}

// resumed records where a restart property picked the run back up.
func (x *Ctx) resumed(prop string, step int) {
	if x.Resumed == nil {
		x.Resumed = make(map[string]int)
	}
	x.Resumed[prop] = step
}

// Reference returns the memoized serial fused-kernel solution.
func (x *Ctx) Reference() (*core.MacroField, error) {
	if !x.refDone {
		x.ref, x.refErr = x.Case.Reference()
		x.refDone = true
	}
	return x.ref, x.refErr
}

// Oracle is one executable correctness statement. Check returns nil on
// pass, errSkip (via skipf) when the case is out of scope, and a
// descriptive violation otherwise.
type Oracle struct {
	Name  string
	Check func(x *Ctx) error
}

// Oracles returns the complete conformance suite: the differential
// backend matrix against the serial reference, then the metamorphic and
// physics properties.
func Oracles() []Oracle {
	var os []Oracle
	for _, b := range Backends() {
		b := b
		os = append(os, Oracle{Name: b.Name, Check: func(x *Ctx) error {
			want, err := x.Reference()
			if err != nil {
				return fmt.Errorf("reference: %w", err)
			}
			got, err := b.Run(x.Case)
			if err != nil {
				return skipf("backend %s: %v", b.Name, err)
			}
			return Compare(want, got, Exact)
		}})
	}
	os = append(os,
		Oracle{Name: "prop/mass", Check: checkMass},
		Oracle{Name: "prop/momentum", Check: checkMomentum},
		Oracle{Name: "prop/rest", Check: checkRest},
		Oracle{Name: "prop/translate", Check: checkTranslate},
		Oracle{Name: "prop/reflect", Check: checkReflect},
		Oracle{Name: "prop/rotate", Check: checkRotate},
		Oracle{Name: "prop/checkpoint", Check: checkCheckpoint},
		Oracle{Name: "prop/aa-parity", Check: checkAAParity},
		Oracle{Name: "prop/faultplan", Check: checkFaultPlan},
		Oracle{Name: "prop/recover-hotswap", Check: checkRecoverHotswap},
		Oracle{Name: "prop/halo-flip", Check: checkHaloFlip},
	)
	return os
}

// OracleNames lists the suite in order.
func OracleNames() []string {
	os := Oracles()
	names := make([]string, len(os))
	for i, o := range os {
		names[i] = o.Name
	}
	return names
}

// ---------------------------------------------------------------------
// Conservation properties.

// checkMass asserts global mass conservation on periodic domains: LBGK
// collision conserves density exactly, bounce-back walls return every
// population they receive, and the Guo source terms sum to zero over Q.
// The FP budget is relative 1e-12 — far above accumulated rounding,
// far below any dropped or duplicated population.
func checkMass(x *Ctx) error {
	c := x.Case
	if c.BC != BCPeriodic {
		return skipf("mass conservation needs a closed (periodic) domain, bc=%s", c.BC)
	}
	l, err := c.newLattice()
	if err != nil {
		return err
	}
	m0 := l.TotalMass()
	c.advance(l, nil, c.Steps, (*core.Lattice).StepFused)
	m1 := l.TotalMass()
	if tol := 1e-12 * math.Abs(m0); math.Abs(m1-m0) > tol {
		return fmt.Errorf("mass drift: %.17g -> %.17g (Δ=%.3g > %.3g)", m0, m1, m1-m0, tol)
	}
	return nil
}

// checkMomentum asserts global momentum conservation on periodic,
// obstacle-free, force-free domains (walls exchange momentum with the
// fluid and the Guo force injects it, so those cases are out of scope).
func checkMomentum(x *Ctx) error {
	c := x.Case
	if c.BC != BCPeriodic || c.Obst > 0 || c.Force != [3]float64{} {
		return skipf("momentum conservation needs periodic, wall-free, force-free flow")
	}
	l, err := c.newLattice()
	if err != nil {
		return err
	}
	jx0, jy0, jz0 := l.TotalMomentum()
	c.advance(l, nil, c.Steps, (*core.Lattice).StepFused)
	jx1, jy1, jz1 := l.TotalMomentum()
	cells := float64(c.NX * c.NY * c.NZ)
	tol := 1e-12 * cells
	for _, d := range []struct {
		name   string
		b4, af float64
	}{{"jx", jx0, jx1}, {"jy", jy0, jy1}, {"jz", jz0, jz1}} {
		if math.Abs(d.af-d.b4) > tol {
			return fmt.Errorf("momentum drift %s: %.17g -> %.17g (Δ=%.3g > %.3g)",
				d.name, d.b4, d.af, d.af-d.b4, tol)
		}
	}
	return nil
}

// checkRest asserts the quiescent state is a fixed point: with ρ=1, u=0
// everywhere (obstacles kept, no forcing, no driving boundary) the flow
// must stay at rest to within accumulated rounding. In exact arithmetic
// it is exactly fixed; in binary the D3Q19 weights do not sum to exactly
// one, so a per-step O(1e-16) residual is allowed for.
func checkRest(x *Ctx) error {
	c := x.Case
	if c.BC != BCPeriodic || c.Force != [3]float64{} {
		return skipf("rest fixed point needs an undriven periodic domain")
	}
	rest := func(gx, gy, gz int) (rho, ux, uy, uz float64) { return 1, 0, 0, 0 }
	l, err := c.buildLattice(c.Walls(), rest)
	if err != nil {
		return err
	}
	c.advance(l, nil, c.Steps, (*core.Lattice).StepFused)
	m := l.ComputeMacro()
	uTol := 1e-14 * float64(c.Steps+1)
	rhoTol := 1e-13 * float64(c.Steps+1)
	for i := range m.Rho {
		if m.Rho[i] == 0 {
			continue // solid cell
		}
		if math.Abs(m.Rho[i]-1) > rhoTol {
			return fmt.Errorf("rest state drifted: rho[%d]=%.17g (|Δ|>%.3g)", i, m.Rho[i], rhoTol)
		}
		if v := math.Max(math.Abs(m.Ux[i]), math.Max(math.Abs(m.Uy[i]), math.Abs(m.Uz[i]))); v > uTol {
			return fmt.Errorf("rest state drifted: |u|[%d]=%.3g > %.3g", i, v, uTol)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Symmetry properties. Each transform is applied to the *scenario*
// (walls, init, force), the transformed case is run from scratch, and
// the result must equal the transformed reference field. Translation is
// a pure relabeling of identical per-cell computations, so it is
// bit-exact; reflection and rotation permute the population order inside
// the moment and equilibrium sums, so they carry the documented
// Metamorphic tolerance.

func wrapCoord(v, n int) int { return ((v % n) + n) % n }

// checkTranslate asserts stepping commutes with periodic translation,
// bit-exactly.
func checkTranslate(x *Ctx) error {
	c := x.Case
	if c.BC != BCPeriodic {
		return skipf("translation symmetry needs periodic bc")
	}
	want, err := x.Reference()
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	dx, dy, dz := 3%c.NX, 2%c.NY, 1%c.NZ
	walls, init := c.Walls(), c.Init()
	var twalls WallsFunc
	if walls != nil {
		twalls = func(gx, gy, gz int) bool {
			return walls(wrapCoord(gx-dx, c.NX), wrapCoord(gy-dy, c.NY), wrapCoord(gz-dz, c.NZ))
		}
	}
	tinit := func(gx, gy, gz int) (rho, ux, uy, uz float64) {
		return init(wrapCoord(gx-dx, c.NX), wrapCoord(gy-dy, c.NY), wrapCoord(gz-dz, c.NZ))
	}
	l, err := c.buildLattice(twalls, tinit)
	if err != nil {
		return err
	}
	c.advance(l, nil, c.Steps, (*core.Lattice).StepFused)
	got := l.ComputeMacro()
	exp := emptyLike(want)
	forEachCell(want, func(gx, gy, gz, i int) {
		j := exp.Idx(wrapCoord(gx+dx, c.NX), wrapCoord(gy+dy, c.NY), wrapCoord(gz+dz, c.NZ))
		exp.Rho[j], exp.Ux[j], exp.Uy[j], exp.Uz[j] = want.Rho[i], want.Ux[i], want.Uy[i], want.Uz[i]
	})
	if err := Compare(exp, got, Exact); err != nil {
		return fmt.Errorf("translate(+%d,+%d,+%d): %w", dx, dy, dz, err)
	}
	return nil
}

// checkReflect asserts stepping commutes with the x-axis mirror.
func checkReflect(x *Ctx) error {
	c := x.Case
	if c.BC != BCPeriodic {
		return skipf("reflection symmetry needs periodic bc")
	}
	want, err := x.Reference()
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	mir := func(gx int) int { return c.NX - 1 - gx }
	walls, init := c.Walls(), c.Init()
	var rwalls WallsFunc
	if walls != nil {
		rwalls = func(gx, gy, gz int) bool { return walls(mir(gx), gy, gz) }
	}
	rinit := func(gx, gy, gz int) (rho, ux, uy, uz float64) {
		rho, ux, uy, uz = init(mir(gx), gy, gz)
		return rho, -ux, uy, uz
	}
	rc := *c
	rc.Force[0] = -c.Force[0]
	l, err := rc.buildLattice(rwalls, rinit)
	if err != nil {
		return err
	}
	rc.advance(l, nil, rc.Steps, (*core.Lattice).StepFused)
	got := l.ComputeMacro()
	exp := emptyLike(want)
	forEachCell(want, func(gx, gy, gz, i int) {
		j := exp.Idx(mir(gx), gy, gz)
		exp.Rho[j], exp.Ux[j], exp.Uy[j], exp.Uz[j] = want.Rho[i], -want.Ux[i], want.Uy[i], want.Uz[i]
	})
	if err := Compare(exp, got, Metamorphic); err != nil {
		return fmt.Errorf("reflect(x): %w", err)
	}
	return nil
}

// checkRotate asserts stepping commutes with a 90° rotation about z.
// The case is squared in the xy plane (NY := NX) so the rotation maps
// the lattice onto itself; destination (x', y') = (N-1-y, x), velocity
// (ux, uy) → (−uy, ux).
func checkRotate(x *Ctx) error {
	c := x.Case
	if c.BC != BCPeriodic {
		return skipf("rotation symmetry needs periodic bc")
	}
	sq := *c
	sq.NY = sq.NX
	n := sq.NX
	want, err := sq.Reference()
	if err != nil {
		return fmt.Errorf("square reference: %w", err)
	}
	walls, init := sq.Walls(), sq.Init()
	var rwalls WallsFunc
	if walls != nil {
		rwalls = func(gx, gy, gz int) bool { return walls(gy, n-1-gx, gz) }
	}
	rinit := func(gx, gy, gz int) (rho, ux, uy, uz float64) {
		rho, ux, uy, uz = init(gy, n-1-gx, gz)
		return rho, -uy, ux, uz
	}
	rc := sq
	rc.Force[0], rc.Force[1] = -sq.Force[1], sq.Force[0]
	l, err := rc.buildLattice(rwalls, rinit)
	if err != nil {
		return err
	}
	rc.advance(l, nil, rc.Steps, (*core.Lattice).StepFused)
	got := l.ComputeMacro()
	exp := emptyLike(want)
	forEachCell(want, func(gx, gy, gz, i int) {
		j := exp.Idx(n-1-gy, gx, gz)
		exp.Rho[j], exp.Ux[j], exp.Uy[j], exp.Uz[j] = want.Rho[i], -want.Uy[i], want.Ux[i], want.Uz[i]
	})
	if err := Compare(exp, got, Metamorphic); err != nil {
		return fmt.Errorf("rotate(90° about z, squared to %d×%d): %w", n, n, err)
	}
	return nil
}

// emptyLike allocates a zero field with the reference's shape.
func emptyLike(m *core.MacroField) *core.MacroField {
	n := m.NX * m.NY * m.NZ
	return &core.MacroField{NX: m.NX, NY: m.NY, NZ: m.NZ,
		Rho: make([]float64, n), Ux: make([]float64, n),
		Uy: make([]float64, n), Uz: make([]float64, n)}
}

// forEachCell visits every cell of the field with its linear index.
func forEachCell(m *core.MacroField, fn func(gx, gy, gz, i int)) {
	for gy := 0; gy < m.NY; gy++ {
		for gx := 0; gx < m.NX; gx++ {
			for gz := 0; gz < m.NZ; gz++ {
				fn(gx, gy, gz, m.Idx(gx, gy, gz))
			}
		}
	}
}

// ---------------------------------------------------------------------
// Checkpoint/restart properties.

// checkpointLayout is the rank grid the restart properties run on.
const ckptPX, ckptPY = 2, 2

// runGatherLattice runs a distributed simulation for steps and returns
// the gathered global lattice state from rank 0.
func runGatherLattice(opts psolve.Options, steps int) (*core.Lattice, error) {
	w, err := mpi.NewWorld(opts.PX * opts.PY)
	if err != nil {
		return nil, err
	}
	var out *core.Lattice
	err = mpi.RunWorld(w, func(cm *mpi.Comm) error {
		s, err := psolve.New(cm, opts)
		if err != nil {
			return err
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
		g, err := s.GatherLattice(0)
		if err != nil {
			return err
		}
		if g != nil {
			out = g
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkCheckpoint asserts checkpoint → serialize → restore → resume is
// bit-identical to an uninterrupted distributed run: the state round
// trips through the swio V2 (CRC-validated) encoding midway.
func checkCheckpoint(x *Ctx) error {
	c := x.Case
	k := c.Steps / 2
	if k < 1 {
		return skipf("checkpoint property needs ≥ 2 steps")
	}
	opts := c.Options(ckptPX, ckptPY)
	full, err := psolve.Run(opts, c.Steps)
	if err != nil {
		return skipf("distributed run: %v", err)
	}
	mid, err := runGatherLattice(opts, k)
	if err != nil {
		return skipf("checkpoint leg: %v", err)
	}
	var buf bytes.Buffer
	if err := swio.WriteCheckpoint(&buf, mid); err != nil {
		return fmt.Errorf("serialize at step %d: %w", k, err)
	}
	restored, err := swio.ReadCheckpoint(&buf)
	if err != nil {
		return fmt.Errorf("deserialize at step %d: %w", k, err)
	}
	opts.Restore = restored
	x.resumed("prop/checkpoint", restored.Step())
	resumed, err := psolve.Run(opts, c.Steps-k)
	if err != nil {
		return fmt.Errorf("resume after restore: %w", err)
	}
	if err := Compare(full, resumed, Exact); err != nil {
		return fmt.Errorf("restore at step %d/%d diverges from uninterrupted run: %w", k, c.Steps, err)
	}
	return nil
}

// checkAAParity is the AA phase-parity metamorphic property: run the
// case on an in-place AA lattice, stop at an ODD step (where the storage
// layout is the reversed-shifted one), capture the state through the
// resil L1 path, restore it into a fresh AA lattice placed at the same
// parity, resume, and require the final field to match the uninterrupted
// serial reference bit-for-bit. The restore must also REFUSE a
// wrong-parity target with the typed resil.ErrPhaseMismatch — a restore
// that silently scatters an odd-phase payload into an even-phase layout
// would corrupt every population.
func checkAAParity(x *Ctx) error {
	c := x.Case
	if c.Steps < 2 {
		return skipf("aa-parity property needs ≥ 2 steps")
	}
	k := c.Steps / 2
	if k%2 == 0 {
		k-- // force an odd-parity stopping point (k ≥ 1 for Steps ≥ 2)
	}
	want, err := x.Reference()
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	l, err := c.newLattice()
	if err != nil {
		return err
	}
	l.EnableAA()
	c.advance(l, c.conds(), k, (*core.Lattice).StepFused)
	var snap resil.Snapshot
	resil.Capture(&snap, l, decomp.Block{NX: c.NX, NY: c.NY, NZ: c.NZ}, 0)

	wrong, err := c.newLattice()
	if err != nil {
		return err
	}
	wrong.EnableAA()
	wrong.SetStep(k + 1)
	if err := resil.RestoreInto(wrong, &snap); !errors.Is(err, resil.ErrPhaseMismatch) {
		return fmt.Errorf("restore of an odd-parity snapshot into an even-phase lattice returned %v, want ErrPhaseMismatch", err)
	}

	fresh, err := c.newLattice()
	if err != nil {
		return err
	}
	fresh.EnableAA()
	fresh.SetStep(k)
	if err := resil.RestoreInto(fresh, &snap); err != nil {
		return fmt.Errorf("restore at odd step %d: %w", k, err)
	}
	c.advance(fresh, c.conds(), c.Steps-k, (*core.Lattice).StepFused)
	if err := Compare(want, fresh.ComputeMacro(), Exact); err != nil {
		return fmt.Errorf("AA capture/restore at odd step %d/%d diverges from uninterrupted run: %w", k, c.Steps, err)
	}
	return nil
}

// checkFaultPlan asserts a supervised run that loses a rank mid-flight
// and recovers from its last verified checkpoint still produces the
// bit-identical flow (deterministic replay, §IV-B).
func checkFaultPlan(x *Ctx) error {
	c := x.Case
	if c.Steps < 2 {
		return skipf("fault-plan property needs ≥ 2 steps")
	}
	opts := c.Options(ckptPX, ckptPY)
	clean, err := psolve.Run(opts, c.Steps)
	if err != nil {
		return skipf("distributed run: %v", err)
	}
	plan := fault.Plan{
		Seed:    c.Seed,
		Crashes: []fault.Crash{{Rank: 1, Step: c.Steps / 2}},
	}
	supervised, stats, err := psolve.Supervise(psolve.SupervisorOptions{
		Opts:            opts,
		Steps:           c.Steps,
		CheckpointEvery: 1,
		MaxRestarts:     3,
		Injector:        fault.NewInjector(plan),
	})
	if err != nil {
		return fmt.Errorf("supervised run failed to recover: %w", err)
	}
	// The world stops at the crash step; LostSteps is how far behind it
	// the rollback target lay.
	x.resumed("prop/faultplan", c.Steps/2-stats.LostSteps)
	if err := Compare(clean, supervised, Exact); err != nil {
		return fmt.Errorf("recovery from crash@step %d diverges: %w", c.Steps/2, err)
	}
	return nil
}

// checkRecoverHotswap asserts the memory-tier recovery path: a
// supervised run with the full L1|L2|L3 snapshot hierarchy that loses
// one rank in every parity group must repair itself from buddy copies
// and XOR parity alone — zero disk rollbacks — and still reproduce the
// fault-free flow bit-for-bit (MaxULP = 0, deterministic replay §IV-B).
func checkRecoverHotswap(x *Ctx) error {
	c := x.Case
	if c.Steps < 2 {
		return skipf("hot-swap property needs ≥ 2 steps")
	}
	opts := c.Options(ckptPX, ckptPY)
	clean, err := psolve.Run(opts, c.Steps)
	if err != nil {
		return skipf("distributed run: %v", err)
	}
	// One injected death per parity group: with 2×2 ranks and groups of
	// two this is the worst loss the memory tier must absorb without
	// touching the L4 file.
	k := c.Steps / 2
	plan := fault.Plan{
		Seed: c.Seed,
		GroupCrashes: []fault.GroupCrash{
			{Group: 0, Count: 1, Step: k},
			{Group: 1, Count: 1, Step: k},
		},
	}
	supervised, stats, err := psolve.Supervise(psolve.SupervisorOptions{
		Opts:            opts,
		Steps:           c.Steps,
		CheckpointEvery: c.Steps, // L4 file exists but must stay cold
		MaxRestarts:     3,
		SnapshotEvery:   1,
		Levels:          resil.L1 | resil.L2 | resil.L3 | resil.L4,
		GroupSize:       2,
		SpareRanks:      2,
		Injector:        fault.NewInjector(plan),
	})
	if err != nil {
		return fmt.Errorf("supervised run failed to hot-swap: %w", err)
	}
	if stats.DiskRollbacks != 0 {
		return fmt.Errorf("memory tier leaked to disk: %d rollbacks (hot swaps %d)",
			stats.DiskRollbacks, stats.HotSwaps)
	}
	if stats.HotSwaps < 1 {
		return fmt.Errorf("no hot swap recorded (restarts %d)", stats.Restarts)
	}
	x.resumed("prop/recover-hotswap", k-stats.LostSteps)
	if err := Compare(clean, supervised, Exact); err != nil {
		return fmt.Errorf("hot-swap recovery at step %d diverges: %w", k, err)
	}
	return nil
}

// checkHaloFlip asserts that a bit flipped in a halo face in flight ends
// bit-exact or typed, never silently wrong (§IV-B's deterministic replay
// depends on it). Unsupervised, the run either fails with
// psolve.ErrHaloCorrupt or — when the bit was one the trailer check
// cannot use, such as a fraction bit of a checksum half — ends exact;
// supervised, the restart replays it exactly.
func checkHaloFlip(x *Ctx) error {
	c := x.Case
	opts := c.Options(ckptPX, ckptPY)
	clean, err := psolve.Run(opts, c.Steps)
	if err != nil {
		return skipf("distributed run: %v", err)
	}
	plan := fault.Plan{Seed: c.Seed, Links: []fault.Link{{Src: -1, Dst: -1, Flip: 1, Max: 1}}}
	got, err := runFaulted(opts, c.Steps, fault.NewInjector(plan))
	switch {
	case errors.Is(err, psolve.ErrHaloCorrupt):
	case err != nil:
		return fmt.Errorf("unsupervised halo flip ended in an untyped error: %w", err)
	default:
		if err := Compare(clean, got, Exact); err != nil {
			return fmt.Errorf("unsupervised halo flip accepted a wrong face: %w", err)
		}
	}
	got, _, err = psolve.Supervise(psolve.SupervisorOptions{
		Opts:        opts,
		Steps:       c.Steps,
		MaxRestarts: 1,
		Injector:    fault.NewInjector(plan),
	})
	if err != nil {
		return fmt.Errorf("supervised run failed to recover from a halo flip: %w", err)
	}
	if err := Compare(clean, got, Exact); err != nil {
		return fmt.Errorf("recovery from a halo flip diverges: %w", err)
	}
	return nil
}

// runFaulted is psolve.Run on a world whose transport runs a fault hook.
// A failed run reports the world's failure cause — the rank that failed
// first, not the lowest rank that died of it.
func runFaulted(opts psolve.Options, steps int, hook mpi.FaultHook) (*core.MacroField, error) {
	w, err := mpi.NewWorld(opts.PX * opts.PY)
	if err != nil {
		return nil, err
	}
	w.SetFaultHook(hook)
	var out *core.MacroField
	err = mpi.RunWorld(w, func(cm *mpi.Comm) error {
		s, err := psolve.New(cm, opts)
		if err != nil {
			return err
		}
		for i := 0; i < steps; i++ {
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
