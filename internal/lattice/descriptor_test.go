package lattice

import (
	"math"
	"testing"
	"testing/quick"
)

var allDescriptors = []*Descriptor{&D3Q19, &D2Q9, &D3Q15, &D3Q27}

func TestDescriptorShapes(t *testing.T) {
	want := map[string]struct{ d, q int }{
		"D3Q19": {3, 19},
		"D2Q9":  {2, 9},
		"D3Q15": {3, 15},
		"D3Q27": {3, 27},
	}
	for _, d := range allDescriptors {
		w := want[d.Name]
		if d.D != w.d || d.Q != w.q {
			t.Errorf("%s: got D=%d Q=%d, want D=%d Q=%d", d.Name, d.D, d.Q, w.d, w.q)
		}
		if len(d.C) != d.Q || len(d.W) != d.Q || len(d.Opp) != d.Q {
			t.Errorf("%s: table lengths inconsistent", d.Name)
		}
	}
}

func TestWeightsSumToOne(t *testing.T) {
	for _, d := range allDescriptors {
		sum := 0.0
		for _, w := range d.W {
			sum += w
		}
		if math.Abs(sum-1) > 1e-14 {
			t.Errorf("%s: weights sum to %v", d.Name, sum)
		}
	}
}

func TestOppositeTable(t *testing.T) {
	for _, d := range allDescriptors {
		for i := 0; i < d.Q; i++ {
			j := d.Opp[i]
			if d.Opp[j] != i {
				t.Errorf("%s: Opp not an involution at %d", d.Name, i)
			}
			for k := 0; k < 3; k++ {
				if d.C[j][k] != -d.C[i][k] {
					t.Errorf("%s: C[Opp[%d]] != -C[%d]", d.Name, i, i)
				}
			}
		}
	}
}

// TestLatticeIsotropy verifies the standard moment conditions of the
// quadrature: Σw c = 0, Σw c_a c_b = c_s² δ_ab, Σw c_a c_b c_c = 0 and
// Σw c_a c_b c_c c_d = c_s⁴ (δab δcd + δac δbd + δad δbc). These are the
// conditions under which the LBGK model recovers Navier–Stokes.
func TestLatticeIsotropy(t *testing.T) {
	for _, d := range allDescriptors {
		// First moment.
		for a := 0; a < 3; a++ {
			m := 0.0
			for i := 0; i < d.Q; i++ {
				m += d.W[i] * float64(d.C[i][a])
			}
			if math.Abs(m) > 1e-14 {
				t.Errorf("%s: first moment [%d] = %v", d.Name, a, m)
			}
		}
		// Second moment.
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				m := 0.0
				for i := 0; i < d.Q; i++ {
					m += d.W[i] * float64(d.C[i][a]) * float64(d.C[i][b])
				}
				want := 0.0
				if a == b && (d.D == 3 || a < 2) {
					want = CS2
				}
				if math.Abs(m-want) > 1e-14 {
					t.Errorf("%s: second moment [%d][%d] = %v, want %v", d.Name, a, b, m, want)
				}
			}
		}
		// Third moment vanishes by symmetry.
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				for c := 0; c < 3; c++ {
					m := 0.0
					for i := 0; i < d.Q; i++ {
						m += d.W[i] * float64(d.C[i][a]) * float64(d.C[i][b]) * float64(d.C[i][c])
					}
					if math.Abs(m) > 1e-14 {
						t.Errorf("%s: third moment [%d][%d][%d] = %v", d.Name, a, b, c, m)
					}
				}
			}
		}
	}
}

// TestFourthMomentD3Q19 checks the fourth-order isotropy condition that
// distinguishes Navier–Stokes-capable lattices.
func TestFourthMomentD3Q19(t *testing.T) {
	d := &D3Q19
	delta := func(a, b int) float64 {
		if a == b {
			return 1
		}
		return 0
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 3; c++ {
				for e := 0; e < 3; e++ {
					m := 0.0
					for i := 0; i < d.Q; i++ {
						m += d.W[i] * float64(d.C[i][a]) * float64(d.C[i][b]) *
							float64(d.C[i][c]) * float64(d.C[i][e])
					}
					want := CS2 * CS2 * (delta(a, b)*delta(c, e) + delta(a, c)*delta(b, e) + delta(a, e)*delta(b, c))
					if math.Abs(m-want) > 1e-14 {
						t.Errorf("fourth moment [%d%d%d%d] = %v, want %v", a, b, c, e, m, want)
					}
				}
			}
		}
	}
}

// TestEquilibriumMoments: the equilibrium distribution must reproduce the
// macroscopic density and momentum it was built from, for arbitrary
// (bounded) inputs. Property-based.
func TestEquilibriumMoments(t *testing.T) {
	for _, d := range allDescriptors {
		d := d
		f := func(rho0, ux0, uy0, uz0 float64) bool {
			// Map arbitrary floats into the physically meaningful range.
			rho := 0.5 + math.Abs(math.Mod(rho0, 1.0)) // (0.5, 1.5)
			ux := math.Mod(ux0, 0.1)
			uy := math.Mod(uy0, 0.1)
			uz := math.Mod(uz0, 0.1)
			if d.D == 2 {
				uz = 0
			}
			feq := make([]float64, d.Q)
			d.EquilibriumAll(feq, rho, ux, uy, uz)
			r, jx, jy, jz := d.Moments(feq)
			tol := 1e-12
			return math.Abs(r-rho) < tol &&
				math.Abs(jx-rho*ux) < tol*10 &&
				math.Abs(jy-rho*uy) < tol*10 &&
				math.Abs(jz-rho*uz) < tol*10
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestEquilibriumAllMatchesEquilibrium(t *testing.T) {
	d := &D3Q19
	feq := make([]float64, d.Q)
	d.EquilibriumAll(feq, 1.1, 0.03, -0.02, 0.01)
	for i := 0; i < d.Q; i++ {
		if got := d.Equilibrium(i, 1.1, 0.03, -0.02, 0.01); math.Abs(got-feq[i]) > 1e-15 {
			t.Errorf("direction %d: Equilibrium=%v EquilibriumAll=%v", i, got, feq[i])
		}
	}
}

func TestEquilibriumAtRest(t *testing.T) {
	// At zero velocity f_i^eq = w_i ρ exactly.
	for _, d := range allDescriptors {
		feq := make([]float64, d.Q)
		d.EquilibriumAll(feq, 2.0, 0, 0, 0)
		for i := 0; i < d.Q; i++ {
			if math.Abs(feq[i]-2*d.W[i]) > 1e-15 {
				t.Errorf("%s: rest equilibrium wrong at %d", d.Name, i)
			}
		}
	}
}

func TestViscosityTauRoundTrip(t *testing.T) {
	f := func(nu0 float64) bool {
		nu := math.Abs(math.Mod(nu0, 10))
		return math.Abs(Viscosity(Tau(nu))-nu) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got := Viscosity(1.0); math.Abs(got-1.0/6.0) > 1e-15 {
		t.Errorf("Viscosity(1) = %v, want 1/6", got)
	}
}

func TestMomentsZero(t *testing.T) {
	d := &D3Q19
	f := make([]float64, d.Q)
	rho, jx, jy, jz := d.Moments(f)
	if rho != 0 || jx != 0 || jy != 0 || jz != 0 {
		t.Error("moments of zero populations must be zero")
	}
}

func BenchmarkEquilibriumAllD3Q19(b *testing.B) {
	d := &D3Q19
	feq := make([]float64, d.Q)
	for i := 0; i < b.N; i++ {
		d.EquilibriumAll(feq, 1.0, 0.05, 0.01, -0.02)
	}
}

func BenchmarkMomentsD3Q19(b *testing.B) {
	d := &D3Q19
	f := make([]float64, d.Q)
	d.EquilibriumAll(f, 1.0, 0.05, 0.01, -0.02)
	for i := 0; i < b.N; i++ {
		d.Moments(f)
	}
}
