package boundary

import (
	"math"
	"testing"

	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
)

func newLat(t testing.TB, nx, ny, nz int) *core.Lattice {
	t.Helper()
	l, err := core.NewLattice(&lattice.D3Q19, nx, ny, nz, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestConditionNames(t *testing.T) {
	conds := []Condition{
		&VelocityInlet{Face: core.FaceXMin},
		&PressureOutlet{Face: core.FaceXMax},
		&Outflow{Face: core.FaceXMax},
		&NoSlip{Face: core.FaceYMin},
		&MovingNoSlip{Face: core.FaceYMax},
		&FreeSlip{Face: core.FaceZMin},
		&Periodic{Axis: 2},
	}
	seen := map[string]bool{}
	for _, c := range conds {
		n := c.Name()
		if n == "" || seen[n] {
			t.Errorf("condition name %q empty or duplicated", n)
		}
		seen[n] = true
	}
}

func TestSetApplyOrder(t *testing.T) {
	l := newLat(t, 4, 4, 4)
	var s Set
	s.Add(&NoSlip{Face: core.FaceXMin}, &VelocityInlet{Face: core.FaceXMin, U: [3]float64{0.1, 0, 0}})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Apply(l)
	// Later condition wins: the x- halo must be Ghost (inlet), not Wall.
	if got := l.Flags[l.Idx(-1, 2, 2)]; got != core.Ghost {
		t.Errorf("x- halo flag = %v, want Ghost", got)
	}
}

// TestVelocityInletDrivesFlow: an inlet on x- with +x velocity and outflow
// on x+ must accelerate the fluid in +x.
func TestVelocityInletDrivesFlow(t *testing.T) {
	l := newLat(t, 12, 6, 6)
	var s Set
	s.Add(
		&VelocityInlet{Face: core.FaceXMin, U: [3]float64{0.05, 0, 0}},
		&PressureOutlet{Face: core.FaceXMax, Rho: 1.0},
		&Periodic{Axis: 1},
		&Periodic{Axis: 2},
	)
	for i := 0; i < 1200; i++ {
		s.Apply(l)
		l.StepFused()
	}
	m := l.MacroAt(6, 3, 3)
	if math.Abs(m.Ux-0.05) > 1e-3 {
		t.Errorf("mid-channel Ux = %v, want ≈0.05", m.Ux)
	}
	if math.Abs(m.Uy) > 0.005 || math.Abs(m.Uz) > 0.005 {
		t.Errorf("transverse velocity too large: %+v", m)
	}
}

// TestVelocityInletProfile: a per-cell profile is honoured.
func TestVelocityInletProfile(t *testing.T) {
	l := newLat(t, 8, 8, 4)
	inlet := &VelocityInlet{
		Face: core.FaceXMin,
		Profile: func(x, y, z int) [3]float64 {
			return [3]float64{0.01 * float64(y+1), 0, 0}
		},
	}
	ApplyWhole(inlet, l)
	// Halo equilibrium at y=2 must encode ux = 0.03.
	idx := l.Idx(-1, 2, 2)
	var rho, jx float64
	for q := 0; q < l.Desc.Q; q++ {
		fi := l.Src()[q*l.N+idx]
		rho += fi
		jx += fi * float64(l.Desc.C[q][0])
	}
	if math.Abs(jx/rho-0.03) > 1e-12 {
		t.Errorf("profile inlet ux = %v, want 0.03", jx/rho)
	}
}

// TestPressureOutletSetsDensity: the halo density equals the prescribed
// value while velocity follows the interior.
func TestPressureOutletSetsDensity(t *testing.T) {
	l := newLat(t, 8, 4, 4)
	l.InitEquilibrium(1.05, 0.04, 0, 0)
	out := &PressureOutlet{Face: core.FaceXMax, Rho: 0.98}
	ApplyWhole(out, l)
	idx := l.Idx(l.NX, 2, 2)
	var rho, jx float64
	for q := 0; q < l.Desc.Q; q++ {
		fi := l.Src()[q*l.N+idx]
		rho += fi
		jx += fi * float64(l.Desc.C[q][0])
	}
	if math.Abs(rho-0.98) > 1e-12 {
		t.Errorf("outlet rho = %v, want 0.98", rho)
	}
	if math.Abs(jx/rho-0.04) > 1e-12 {
		t.Errorf("outlet ux = %v, want extrapolated 0.04", jx/rho)
	}
}

// TestOutflowZeroGradient: halo populations mirror the interior exactly.
func TestOutflowZeroGradient(t *testing.T) {
	l := newLat(t, 6, 4, 4)
	l.SetCell(5, 2, 2, 1.1, 0.03, 0.01, -0.02)
	ApplyWhole(&Outflow{Face: core.FaceXMax}, l)
	inner := l.Populations(5, 2, 2, nil)
	idx := l.Idx(6, 2, 2)
	for q := 0; q < l.Desc.Q; q++ {
		if got := l.Src()[q*l.N+idx]; got != inner[q] {
			t.Fatalf("outflow halo differs at q=%d", q)
		}
	}
}

// TestNoSlipDecaysFlow: shear flow between two no-slip plates decays to
// rest (Couette decay without driving).
func TestNoSlipDecaysFlow(t *testing.T) {
	l := newLat(t, 10, 6, 6)
	for x := 0; x < l.NX; x++ {
		for y := 0; y < l.NY; y++ {
			for z := 0; z < l.NZ; z++ {
				l.SetCell(x, y, z, 1.0, 0, 0, 0.04)
			}
		}
	}
	var s Set
	s.Add(&Periodic{Axis: 1}, &Periodic{Axis: 2},
		&NoSlip{Face: core.FaceXMin}, &NoSlip{Face: core.FaceXMax})
	v0 := l.MaxVelocity()
	for i := 0; i < 400; i++ {
		s.Apply(l)
		l.StepFused()
	}
	if v1 := l.MaxVelocity(); v1 > v0/2 {
		t.Errorf("no-slip plates should damp the flow: %v -> %v", v0, v1)
	}
}

// TestFreeSlipPreservesTangentialFlow: uniform tangential flow between two
// free-slip planes is a fixed point (no drag).
func TestFreeSlipPreservesTangentialFlow(t *testing.T) {
	l := newLat(t, 8, 6, 6)
	l.InitEquilibrium(1.0, 0, 0, 0.04)
	var s Set
	s.Add(&Periodic{Axis: 1}, &Periodic{Axis: 2},
		&FreeSlip{Face: core.FaceXMin}, &FreeSlip{Face: core.FaceXMax})
	for i := 0; i < 100; i++ {
		s.Apply(l)
		l.StepFused()
	}
	m := l.MacroAt(0, 3, 3) // next to the plane
	if math.Abs(m.Uz-0.04) > 1e-10 {
		t.Errorf("free-slip tangential flow decayed: Uz = %v, want 0.04", m.Uz)
	}
	if math.Abs(m.Ux) > 1e-10 {
		t.Errorf("free-slip normal flow appeared: Ux = %v", m.Ux)
	}
}

// TestFreeSlipBlocksNormalFlow: flow directed at a free-slip plane cannot
// pass through it (zero net normal flux at the plane).
func TestFreeSlipBlocksNormalFlow(t *testing.T) {
	l := newLat(t, 8, 4, 4)
	l.InitEquilibrium(1.0, 0.03, 0, 0)
	var s Set
	s.Add(&Periodic{Axis: 1}, &Periodic{Axis: 2},
		&FreeSlip{Face: core.FaceXMin}, &FreeSlip{Face: core.FaceXMax})
	for i := 0; i < 200; i++ {
		s.Apply(l)
		l.StepFused()
	}
	// Total x-momentum must decay towards zero (flow reflects back).
	jx, _, _ := l.TotalMomentum()
	if math.Abs(jx) > 0.1*0.03*float64(l.FluidCells()) {
		t.Errorf("normal momentum not reflected: jx = %v", jx)
	}
	if v := l.MaxVelocity(); math.IsNaN(v) || v > 0.1 {
		t.Errorf("unstable free-slip reflection: max |u| = %v", v)
	}
}

// TestMovingNoSlipLidCavity: the classic lid-driven cavity spins up.
func TestMovingNoSlipLidCavity(t *testing.T) {
	l := newLat(t, 12, 12, 12)
	var s Set
	s.Add(
		&NoSlip{Face: core.FaceXMin}, &NoSlip{Face: core.FaceXMax},
		&NoSlip{Face: core.FaceZMin}, &NoSlip{Face: core.FaceZMax},
		&NoSlip{Face: core.FaceYMin},
		&MovingNoSlip{Face: core.FaceYMax, U: [3]float64{0.05, 0, 0}},
	)
	for i := 0; i < 300; i++ {
		s.Apply(l)
		l.StepFused()
	}
	// Cells near the lid move with it; cells near the bottom lag or
	// counter-rotate.
	top := l.MacroAt(6, l.NY-1, 6)
	if top.Ux < 0.005 {
		t.Errorf("near-lid Ux = %v, want clearly positive", top.Ux)
	}
	bottom := l.MacroAt(6, 0, 6)
	if bottom.Ux > top.Ux/2 {
		t.Errorf("bottom Ux = %v should lag lid %v", bottom.Ux, top.Ux)
	}
	if v := l.MaxVelocity(); math.IsNaN(v) || v > 0.2 {
		t.Errorf("cavity unstable: max |u| = %v", v)
	}
}

// TestCornersCovered: applying wall conditions on all faces leaves no
// Ghost halo cell that a D3Q19 pull can reach from a fluid cell.
func TestCornersCovered(t *testing.T) {
	l := newLat(t, 5, 5, 5)
	var s Set
	s.Add(
		&NoSlip{Face: core.FaceXMin}, &NoSlip{Face: core.FaceXMax},
		&NoSlip{Face: core.FaceYMin}, &NoSlip{Face: core.FaceYMax},
		&NoSlip{Face: core.FaceZMin}, &NoSlip{Face: core.FaceZMax},
	)
	s.Apply(l)
	d := l.Desc
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			for z := 0; z < l.NZ; z++ {
				for q := 0; q < d.Q; q++ {
					c := d.C[q]
					sx, sy, sz := x-c[0], y-c[1], z-c[2]
					if sx >= 0 && sx < l.NX && sy >= 0 && sy < l.NY && sz >= 0 && sz < l.NZ {
						continue
					}
					if got := l.Flags[l.Idx(sx, sy, sz)]; got == core.Ghost {
						t.Fatalf("reachable halo (%d,%d,%d) still Ghost", sx, sy, sz)
					}
				}
			}
		}
	}
}
