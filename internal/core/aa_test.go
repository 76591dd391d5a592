package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sunwaylb/internal/lattice"
)

// buildPair returns two identically-prepared D3Q19 lattices: a
// double-buffer reference and an AA twin (converted by EnableAA at step 0).
func buildPair(t testing.TB, nx, ny, nz int, tau float64, walls bool) (ref, aa *Lattice) {
	t.Helper()
	return buildPairDesc(t, &lattice.D3Q19, nx, ny, nz, tau, walls)
}

// buildPairDesc is buildPair for any descriptor. A perturbed non-uniform
// initial state, a couple of wall cells and a moving-wall cell exercise
// every gather branch.
func buildPairDesc(t testing.TB, desc *lattice.Descriptor, nx, ny, nz int, tau float64, walls bool) (ref, aa *Lattice) {
	t.Helper()
	mk := func() *Lattice {
		l, err := NewLattice(desc, nx, ny, nz, tau)
		if err != nil {
			t.Fatalf("NewLattice: %v", err)
		}
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				for z := 0; z < nz; z++ {
					rho := 1 + 0.05*math.Sin(float64(x+2*y+3*z))
					ux := 0.02 * math.Cos(float64(x-z))
					uy := 0.01 * math.Sin(float64(y+z))
					uz := 0.015 * math.Cos(float64(x+y))
					if desc.D == 2 {
						uz = 0
					}
					l.SetCell(x, y, z, rho, ux, uy, uz)
				}
			}
		}
		if walls && nx > 2 && ny > 2 && (nz > 2 || desc.D == 2) {
			l.SetWall(nx/2, ny/2, nz/2)
			l.SetWall(1, 1, min(1, nz-1))
			l.SetMovingWall(nx-2, ny-2, max(nz-2, 0), 0.03, -0.01, 0.02)
		}
		return l
	}
	ref, aa = mk(), mk()
	aa.EnableAA()
	return ref, aa
}

// compareLogical fails the test unless every logical population of every
// interior fluid cell matches bit-exactly. Non-fluid cells are skipped:
// their populations are semantically undefined in both schemes (the
// reference leaves stale buffer contents there, the AA scheme parks
// bounced values), and no observable quantity reads them.
func compareLogical(t *testing.T, ref, aa *Lattice, step int) {
	t.Helper()
	var fr, fa []float64
	for y := 0; y < ref.NY; y++ {
		for x := 0; x < ref.NX; x++ {
			for z := 0; z < ref.NZ; z++ {
				if ref.Flags[ref.Idx(x, y, z)] != Fluid {
					continue
				}
				fr = ref.Populations(x, y, z, fr)
				fa = aa.Populations(x, y, z, fa)
				for q := range fr {
					if math.Float64bits(fr[q]) != math.Float64bits(fa[q]) {
						t.Fatalf("step %d cell (%d,%d,%d) pop %d: ref %v aa %v",
							step, x, y, z, q, fr[q], fa[q])
					}
				}
			}
		}
	}
}

// stepBoth applies identical periodic halo fills and advances both
// lattices one step with the given AA driver.
func stepBoth(ref, aa *Lattice, stepAA func(*Lattice)) {
	ref.PeriodicAll()
	aa.PeriodicAll()
	ref.StepFused()
	stepAA(aa)
}

// TestAAStepBitIdentical checks the AA stepper against the double-buffer
// reference after every single step (both parities): the D3Q19 unrolled
// row, the generic sweep with walls, LES and body forces, and the generic
// sweep on every other descriptor (D2Q9 on a one-cell-deep grid).
func TestAAStepBitIdentical(t *testing.T) {
	cases := []struct {
		name       string
		desc       *lattice.Descriptor
		nx, ny, nz int
		walls      bool
		prep       func(l *Lattice)
	}{
		{"fastpath", &lattice.D3Q19, 6, 5, 7, false, nil},
		{"walls", &lattice.D3Q19, 6, 5, 7, true, nil},
		{"generic", &lattice.D3Q19, 6, 5, 7, true, func(l *Lattice) { l.noFastPath = true }},
		{"les", &lattice.D3Q19, 6, 5, 7, true, func(l *Lattice) { l.Smagorinsky = 0.17 }},
		{"forced", &lattice.D3Q19, 6, 5, 7, false, func(l *Lattice) { l.Force = [3]float64{1e-5, -2e-5, 3e-6} }},
		{"d2q9", &lattice.D2Q9, 7, 6, 1, true, nil},
		{"d3q15", &lattice.D3Q15, 6, 5, 7, true, nil},
		{"d3q27", &lattice.D3Q27, 6, 5, 7, true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, aa := buildPairDesc(t, tc.desc, tc.nx, tc.ny, tc.nz, 0.7, tc.walls)
			if tc.prep != nil {
				tc.prep(ref)
				tc.prep(aa)
			}
			for s := 1; s <= 5; s++ {
				stepBoth(ref, aa, (*Lattice).StepFused)
				compareLogical(t, ref, aa, s)
				if ref.Step() != aa.Step() {
					t.Fatalf("step counters diverged: %d vs %d", ref.Step(), aa.Step())
				}
			}
		})
	}
}

// TestAAPoolBitIdentical checks the persistent worker pool against the
// reference at every step, with more workers than rows in one case.
func TestAAPoolBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			ref, aa := buildPair(t, 6, 5, 7, 0.8, true)
			p := NewPool(aa, workers)
			defer p.Close()
			for s := 1; s <= 4; s++ {
				stepBoth(ref, aa, func(l *Lattice) { p.Step() })
				compareLogical(t, ref, aa, s)
			}
		})
	}
}

// TestAAOnTheFlyRegions drives the AA lattice through the
// StepRegion/CompleteStep API (the on-the-fly overlap path) and compares
// against the reference at both parities.
func TestAAOnTheFlyRegions(t *testing.T) {
	ref, aa := buildPair(t, 6, 5, 7, 0.7, true)
	for s := 1; s <= 4; s++ {
		ref.PeriodicAll()
		aa.PeriodicAll()
		ref.StepFused()
		// Inner block first, then the boundary strips, as psolve does.
		aa.StepRegion(1, aa.NX-1, 1, aa.NY-1)
		aa.StepRegion(0, aa.NX, 0, 1)
		aa.StepRegion(0, aa.NX, aa.NY-1, aa.NY)
		aa.StepRegion(0, 1, 1, aa.NY-1)
		aa.StepRegion(aa.NX-1, aa.NX, 1, aa.NY-1)
		aa.CompleteStep()
		compareLogical(t, ref, aa, s)
	}
}

// TestEnableAAOddStep converts a lattice mid-run at an odd step count and
// checks the state survives the layout permutation and further stepping.
func TestEnableAAOddStep(t *testing.T) {
	ref, plain := buildPair(t, 5, 6, 5, 0.9, true)
	// plain was converted at step 0 by buildPair; build a third lattice
	// that converts only after an odd number of steps.
	late, _ := buildPair(t, 5, 6, 5, 0.9, true)
	for s := 1; s <= 3; s++ {
		stepBoth(ref, plain, (*Lattice).StepFused)
		late.PeriodicAll()
		late.StepFused()
	}
	late.EnableAA() // step count is 3: odd-phase conversion
	compareLogical(t, ref, late, 3)
	for s := 4; s <= 6; s++ {
		stepBoth(ref, late, (*Lattice).StepFused)
		compareLogical(t, ref, late, s)
	}
	if !late.AA() {
		t.Fatal("late.AA() = false after EnableAA")
	}
	late.EnableAA() // idempotent
	compareLogical(t, ref, late, 6)
}

// TestAASwapBuffersPanics pins the single-buffer contract.
func TestAASwapBuffersPanics(t *testing.T) {
	_, aa := buildPair(t, 4, 4, 4, 0.8, false)
	defer func() {
		if recover() == nil {
			t.Fatal("SwapBuffers on an AA lattice did not panic")
		}
	}()
	aa.SwapBuffers()
}

// TestAAMassMomentumConserved checks the physical oracles at arbitrary
// even and odd stopping points of a fully periodic, unforced AA run.
func TestAAMassMomentumConserved(t *testing.T) {
	_, aa := buildPair(t, 6, 6, 6, 0.6, false)
	m0 := aa.TotalMass()
	jx0, jy0, jz0 := aa.TotalMomentum()
	tol := 1e-12 * math.Abs(m0)
	for s := 1; s <= 5; s++ {
		aa.PeriodicAll()
		aa.StepFused()
		if d := math.Abs(aa.TotalMass() - m0); d > tol {
			t.Fatalf("step %d (parity %d): mass drifted by %g", s, s&1, d)
		}
		jx, jy, jz := aa.TotalMomentum()
		if math.Abs(jx-jx0)+math.Abs(jy-jy0)+math.Abs(jz-jz0) > 1e-11 {
			t.Fatalf("step %d: momentum drifted to (%g,%g,%g) from (%g,%g,%g)",
				s, jx, jy, jz, jx0, jy0, jz0)
		}
	}
}

// FuzzAAStep drives random small grids for random step counts through the
// AA stepper and asserts bit-identity with the
// double-buffer reference plus the mass/momentum oracles at the stopping
// parity.
func FuzzAAStep(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(4), uint8(3), false)
	f.Add(int64(2), uint8(6), uint8(3), uint8(8), uint8(4), true)
	f.Add(int64(3), uint8(2), uint8(2), uint8(2), uint8(1), false)
	f.Add(int64(4), uint8(5), uint8(5), uint8(5), uint8(6), true)
	f.Fuzz(func(t *testing.T, seed int64, nx, ny, nz, steps uint8, walls bool) {
		dim := func(v uint8) int { return 2 + int(v)%7 }
		NX, NY, NZ := dim(nx), dim(ny), dim(nz)
		nsteps := 1 + int(steps)%6
		rng := rand.New(rand.NewSource(seed))
		tau := 0.55 + 0.5*rng.Float64()

		mk := func() *Lattice {
			l, err := NewLattice(&lattice.D3Q19, NX, NY, NZ, tau)
			if err != nil {
				t.Fatalf("NewLattice: %v", err)
			}
			r := rand.New(rand.NewSource(seed + 1))
			for y := 0; y < NY; y++ {
				for x := 0; x < NX; x++ {
					for z := 0; z < NZ; z++ {
						l.SetCell(x, y, z, 1+0.1*(r.Float64()-0.5),
							0.04*(r.Float64()-0.5), 0.04*(r.Float64()-0.5), 0.04*(r.Float64()-0.5))
					}
				}
			}
			if walls && NX > 2 && NY > 2 && NZ > 2 {
				r2 := rand.New(rand.NewSource(seed + 2))
				l.SetWall(1+r2.Intn(NX-2), 1+r2.Intn(NY-2), 1+r2.Intn(NZ-2))
			}
			return l
		}
		ref, aa := mk(), mk()
		aa.EnableAA()
		m0 := aa.TotalMass()
		for s := 0; s < nsteps; s++ {
			ref.PeriodicAll()
			aa.PeriodicAll()
			ref.StepFused()
			aa.StepFused()
		}
		var fr, fa []float64
		for y := 0; y < NY; y++ {
			for x := 0; x < NX; x++ {
				for z := 0; z < NZ; z++ {
					if ref.Flags[ref.Idx(x, y, z)] != Fluid {
						continue
					}
					fr = ref.Populations(x, y, z, fr)
					fa = aa.Populations(x, y, z, fa)
					for q := range fr {
						if math.Float64bits(fr[q]) != math.Float64bits(fa[q]) {
							t.Fatalf("cell (%d,%d,%d) pop %d after %d steps: ref %v aa %v",
								x, y, z, q, nsteps, fr[q], fa[q])
						}
					}
				}
			}
		}
		if !walls { // walls break exact mass conservation bookkeeping here
			if d := math.Abs(aa.TotalMass() - m0); d > 1e-12*math.Abs(m0) {
				t.Fatalf("mass drifted by %g after %d steps (parity %d)", d, nsteps, nsteps&1)
			}
		}
	})
}

func benchAALattice(b *testing.B) *Lattice {
	b.Helper()
	l, err := NewLattice(&lattice.D3Q19, 48, 48, 48, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	l.InitEquilibrium(1, 0.02, 0.01, 0.005)
	l.EnableAA()
	return l
}

func BenchmarkAAStep48(b *testing.B) {
	l := benchAALattice(b)
	cells := float64(48 * 48 * 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.PeriodicAll()
		l.StepFused()
	}
	b.StopTimer()
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
}

func BenchmarkAAPool48(b *testing.B) {
	l := benchAALattice(b)
	p := NewPool(l, 4)
	defer p.Close()
	cells := float64(48 * 48 * 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.PeriodicAll()
		p.Step()
	}
	b.StopTimer()
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
}
