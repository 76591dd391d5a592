package conform

import (
	"fmt"
	"math"

	"sunwaylb/internal/core"
)

// Mutation sensitivity: known numerical bugs are injected into a shadow
// kernel — an independent, descriptor-generic BGK pull step — and the
// suite asserts the oracles *catch* each one. A conformance harness that
// cannot see a flipped relaxation sign has no business gating refactors,
// so the harness's statistical power is itself under test (the same way
// mutation testing scores a unit-test suite).
//
// The shadow kernel intentionally supports only the periodic, force-free,
// DNS subset (mutation cases are normalized into it); bugs must be caught
// there or they would hide behind regime complexity.

// Mutation is one injected bug: a buggy full-step kernel plus the story
// of which oracle class is expected to catch it.
type Mutation struct {
	Name string
	// Detects documents the expected detection channel.
	Detects string
	// Step advances the lattice one (buggy) time step.
	Step func(l *core.Lattice)
	// Control, if non-nil, is the clean twin of Step — the same shadow
	// kernel with no bug injected — used as the control arm instead of
	// the default plain shadow kernel (e.g. the AA shadow kernel, whose
	// stepping discipline differs from the double-buffer one).
	Control func(l *core.Lattice)
}

// Mutations returns the injected-bug catalogue.
func Mutations() []Mutation {
	return []Mutation{
		{
			Name: "flip-relax-sign",
			// BGK collision conserves ρ and j for either sign, so the
			// conservation oracles are blind to this one by design —
			// only the differential oracle can see it.
			Detects: "differential oracle (conservation laws hold for both signs)",
			Step:    func(l *core.Lattice) { shadowStep(l, bugFlipRelax) },
		},
		{
			Name:    "halo-off-by-one",
			Detects: "differential oracle and mass conservation",
			Step:    func(l *core.Lattice) { shadowStep(l, bugHaloOffByOne) },
		},
		{
			Name:    "drop-population",
			Detects: "mass conservation (and differential oracle)",
			Step:    func(l *core.Lattice) { shadowStep(l, bugDropPopulation) },
		},
		{
			Name: "aa-swap",
			// Scattering into slot i instead of Opp[i] parks populations
			// in slots the odd-phase readers (kernel and diagnostics)
			// never look at, so observable mass drifts immediately.
			Detects: "mass oracle (and differential oracle): populations land where phase-aware readers never look",
			Step:    func(l *core.Lattice) { shadowStepAA(l, bugAASwap) },
			Control: func(l *core.Lattice) { shadowStepAA(l, bugNone) },
		},
	}
}

type shadowBug int

const (
	bugNone shadowBug = iota
	// bugFlipRelax relaxes away from equilibrium: f + (f−feq)/τ.
	bugFlipRelax
	// bugHaloOffByOne pulls the +z population from the cell itself
	// instead of its −z neighbour (the classic halo indexing slip).
	bugHaloOffByOne
	// bugDropPopulation zeroes one gathered population.
	bugDropPopulation
	// bugAASwap scatters the even AA half-step into the natural slot i
	// instead of the reversed slot Opp[i] — forgetting the direction
	// reversal that makes the in-place AA pattern work.
	bugAASwap
)

// shadowStep is the shadow kernel: a plain descriptor-generic BGK pull
// collide–stream step (no forcing, no LES, resting-wall bounce-back
// only), written independently of core.Collider and its sweep so a bug in
// one cannot mask the same bug in the other.
func shadowStep(l *core.Lattice, bug shadowBug) {
	d := l.Desc
	q := d.Q
	n := l.N
	src := l.Src()
	dst := l.Dst()
	invTau := 1.0 / l.Tau

	// Neighbour offsets, recomputed from the descriptor (not borrowed
	// from the lattice's private table).
	var offs [core.MaxQ]int
	zPlus := -1
	for i := 0; i < q; i++ {
		c := d.C[i]
		offs[i] = c[1]*l.AX*l.AZ + c[0]*l.AZ + c[2]
		if c[0] == 0 && c[1] == 0 && c[2] == 1 {
			zPlus = i
		}
	}
	var fArr, feqArr [core.MaxQ]float64
	f, feq := fArr[:q], feqArr[:q]

	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			for z := 0; z < l.NZ; z++ {
				idx := l.Idx(x, y, z)
				if l.Flags[idx] != core.Fluid {
					continue
				}
				for i := 0; i < q; i++ {
					from := idx - offs[i]
					if bug == bugHaloOffByOne && i == zPlus {
						from = idx // off by one in z: pulls itself
					}
					if l.Flags[from] == core.Wall || l.Flags[from] == core.MovingWall {
						f[i] = src[d.Opp[i]*n+idx]
					} else {
						f[i] = src[i*n+from]
					}
				}
				if bug == bugDropPopulation {
					f[q-1] = 0
				}
				var rho, jx, jy, jz float64
				for i := 0; i < q; i++ {
					fi := f[i]
					rho += fi
					c := d.C[i]
					jx += fi * float64(c[0])
					jy += fi * float64(c[1])
					jz += fi * float64(c[2])
				}
				invRho := 1.0 / rho
				d.EquilibriumAll(feq, rho, jx*invRho, jy*invRho, jz*invRho)
				for i := 0; i < q; i++ {
					if bug == bugFlipRelax {
						dst[i*n+idx] = math.FMA(invTau, f[i]-feq[i], f[i])
					} else {
						dst[i*n+idx] = math.FMA(-invTau, f[i]-feq[i], f[i])
					}
				}
			}
		}
	}
	l.SwapBuffers()
}

// shadowStepAA is the AA twin of the shadow kernel: the same BGK
// arithmetic applied IN PLACE on a single array, alternating between the
// two AA half-steps by step parity. Even steps gather like the pull
// kernel and scatter each relaxed population into the reversed-shifted
// slot (direction Opp[i] of the downstream neighbour); odd steps gather
// from the reversed slots of the cell itself and write back naturally.
// Written independently of core's AA kernels (own offsets, own slot
// arithmetic) so a planted — or real — swap bug in one cannot mask the
// same bug in the other. The per-cell gather-all-then-scatter order is
// sufficient for correctness: at either parity a cell's writes are read
// only by that cell until the next step.
func shadowStepAA(l *core.Lattice, bug shadowBug) {
	if !l.AA() {
		l.EnableAA() // step 0 is even phase: the layout is unchanged
	}
	d := l.Desc
	q := d.Q
	n := l.N
	src := l.Src()
	invTau := 1.0 / l.Tau
	var offs [core.MaxQ]int
	for i := 0; i < q; i++ {
		c := d.C[i]
		offs[i] = c[1]*l.AX*l.AZ + c[0]*l.AZ + c[2]
	}
	odd := l.Step()%2 == 1
	var fArr, feqArr [core.MaxQ]float64
	f, feq := fArr[:q], feqArr[:q]

	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			for z := 0; z < l.NZ; z++ {
				idx := l.Idx(x, y, z)
				if l.Flags[idx] != core.Fluid {
					continue
				}
				for i := 0; i < q; i++ {
					from := idx - offs[i]
					wall := l.Flags[from] == core.Wall || l.Flags[from] == core.MovingWall
					if !odd {
						// Even phase stores naturally: pull from the
						// upstream neighbour, bounce off walls in place.
						if wall {
							f[i] = src[d.Opp[i]*n+idx]
						} else {
							f[i] = src[i*n+from]
						}
					} else {
						// Odd phase: the even step parked this cell's
						// inbound populations in its own reversed slots
						// (and bounce values in the wall's natural slot).
						if wall {
							f[i] = src[i*n+from]
						} else {
							f[i] = src[d.Opp[i]*n+idx]
						}
					}
				}
				var rho, jx, jy, jz float64
				for i := 0; i < q; i++ {
					fi := f[i]
					rho += fi
					c := d.C[i]
					jx += fi * float64(c[0])
					jy += fi * float64(c[1])
					jz += fi * float64(c[2])
				}
				invRho := 1.0 / rho
				d.EquilibriumAll(feq, rho, jx*invRho, jy*invRho, jz*invRho)
				for i := 0; i < q; i++ {
					out := math.FMA(-invTau, f[i]-feq[i], f[i])
					if !odd {
						slot := d.Opp[i]
						if bug == bugAASwap {
							slot = i // forgets the direction reversal
						}
						src[slot*n+idx+offs[i]] = out
					} else {
						src[i*n+idx] = out
					}
				}
			}
		}
	}
	l.SetStep(l.Step() + 1)
}

// Normalized projects the case into the shadow kernel's subset: periodic
// boundaries, no forcing, no LES (dims, tau, steps, seed and obstacles
// are kept). Mutant oracles replay identically because the projection is
// deterministic.
func (c *Case) Normalized() *Case {
	n := c.clone()
	n.BC = BCPeriodic
	n.Force = [3]float64{}
	n.Smagorinsky = 0
	return n
}

// runShadow executes the (possibly buggy) shadow kernel on the
// normalized case and returns the macro field plus mass before/after.
func runShadow(c *Case, step func(l *core.Lattice)) (field *core.MacroField, m0, m1 float64, err error) {
	l, err := c.newLattice()
	if err != nil {
		return nil, 0, 0, err
	}
	m0 = l.TotalMass()
	c.advance(l, nil, c.Steps, step)
	return l.ComputeMacro(), m0, l.TotalMass(), nil
}

// checkShadow runs the conformance oracles against a shadow kernel and
// returns the first violation (nil = the kernel conforms, i.e. for a
// mutant the bug went UNDETECTED).
func checkShadow(c *Case, step func(l *core.Lattice)) error {
	nc := c.Normalized()
	want, err := nc.Reference()
	if err != nil {
		return skipf("reference: %v", err)
	}
	got, m0, m1, err := runShadow(nc, step)
	if err != nil {
		return skipf("shadow run: %v", err)
	}
	// Conservation oracle first: it is the cheaper and more physical
	// statement, and the mutation story depends on which layer fires.
	if tol := 1e-12 * math.Abs(m0); math.Abs(m1-m0) > tol || math.IsNaN(m1) {
		return fmt.Errorf("mass oracle: drift %.17g -> %.17g (|Δ|>%.3g)", m0, m1, tol)
	}
	if err := Compare(want, got, Exact); err != nil {
		return fmt.Errorf("differential oracle: %w", err)
	}
	return nil
}

// MutantOracles exposes each injected bug as a replayable oracle named
// "mutant/<bug>". These are excluded from RunSuite (they are supposed to
// fail); the self-test and the -replay path use them.
func MutantOracles() []Oracle {
	muts := Mutations()
	out := make([]Oracle, len(muts))
	for i, m := range muts {
		m := m
		out[i] = Oracle{
			Name:  "mutant/" + m.Name,
			Check: func(x *Ctx) error { return checkShadow(x.Case, m.Step) },
		}
	}
	return out
}

// MutantOracleNames lists the mutant oracle names.
func MutantOracleNames() []string {
	muts := Mutations()
	names := make([]string, len(muts))
	for i, m := range muts {
		names[i] = "mutant/" + m.Name
	}
	return names
}

// ShadowControl verifies the shadow kernel itself (no bug injected)
// conforms on a case — the control arm that keeps the mutation self-test
// honest: if the clean shadow kernel already failed, "mutant caught"
// would prove nothing.
func ShadowControl(c *Case) error {
	return checkShadow(c, func(l *core.Lattice) { shadowStep(l, bugNone) })
}

// Detection is the self-test outcome for one mutation.
type Detection struct {
	Mutation Mutation
	// Caught is the first generated case the oracles flagged.
	Caught *Case
	// Min is the shrunk reproduction; Replay its replay string.
	Min    *Case
	Replay string
	// Err is the violation on the shrunk case.
	Err error
}

// SelfTest proves every injected bug is caught: for each mutation it
// scans up to maxCases generated (normalized) scenarios until one trips
// an oracle, shrinks it, and re-runs the shrunk replay string standalone
// (ParseCase round trip included). Any undetected mutation is an error —
// the harness would be too weak to gate refactors.
func SelfTest(seed int64, maxCases int, logf func(format string, args ...any)) ([]Detection, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if maxCases <= 0 {
		maxCases = 10
	}
	var out []Detection
	for _, m := range Mutations() {
		det, err := detectMutation(m, seed, maxCases, logf)
		if err != nil {
			return out, err
		}
		out = append(out, det)
	}
	return out, nil
}

func detectMutation(m Mutation, seed int64, maxCases int, logf func(string, ...any)) (Detection, error) {
	name := "mutant/" + m.Name
	rng := newCaseRNG(seed)
	control := func(l *core.Lattice) { shadowStep(l, bugNone) }
	if m.Control != nil {
		control = m.Control
	}
	for i := 0; i < maxCases; i++ {
		c := GenerateCase(rng).Normalized()
		if err := checkShadow(c, control); err != nil {
			return Detection{}, fmt.Errorf("conform: clean shadow kernel fails control on %s: %w", c, err)
		}
		err := checkShadow(c, m.Step)
		if err == nil || IsSkip(err) {
			continue
		}
		logf("%s: caught by %v on case %d (%s); shrinking", name, err, i+1, c)
		min := Shrink(c, func(cand *Case) bool {
			e := checkShadow(cand, m.Step)
			return e != nil && !IsSkip(e)
		})
		replay := min.String()
		// The shrunk replay string must reproduce standalone: decode it
		// from scratch and rerun the oracle by name.
		rc, perr := ParseCase(replay)
		if perr != nil {
			return Detection{}, fmt.Errorf("conform: shrunk replay %q does not parse: %w", replay, perr)
		}
		rerr := RunOracle(name, rc)
		if rerr == nil || IsSkip(rerr) {
			return Detection{}, fmt.Errorf("conform: shrunk replay %q does not reproduce %s", replay, name)
		}
		logf("%s: minimal replay %q (%v)", name, replay, rerr)
		return Detection{Mutation: m, Caught: c, Min: min, Replay: replay, Err: rerr}, nil
	}
	return Detection{}, fmt.Errorf("conform: mutation %s went UNDETECTED over %d cases (seed %d) — the oracles are too weak",
		m.Name, maxCases, seed)
}
