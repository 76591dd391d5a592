// Taylor–Green vortex: the standard accuracy benchmark for LBM solvers.
//
// The vortex array decays analytically as exp(−2νk²t); comparing the
// measured decay with the analytic rate at several resolutions measures
// the solver's effective viscosity and its convergence order — the
// validation a CFD user runs before trusting any production result.
//
// Usage:
//
//	go run ./examples/taylorgreen [-steps 400]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
)

func main() {
	log.SetFlags(0)
	steps := flag.Int("steps", 400, "time steps per resolution")
	tau := flag.Float64("tau", 0.8, "relaxation time")
	flag.Parse()

	nu := lattice.Viscosity(*tau)
	fmt.Printf("Taylor–Green vortex: tau=%.3f  ν=%.5f  %d steps\n\n", *tau, nu, *steps)
	fmt.Printf("%6s %14s %14s %12s\n", "N", "measured ν", "rel. error", "order")

	var prevErr float64
	var prevN int
	for _, n := range []int{16, 32, 64} {
		nuEff, err := measureViscosity(n, *tau, *steps)
		if err != nil {
			log.Fatalf("taylorgreen: %v", err)
		}
		rel := math.Abs(nuEff-nu) / nu
		order := math.NaN()
		if prevErr > 0 {
			order = math.Log(prevErr/rel) / math.Log(float64(n)/float64(prevN))
		}
		if math.IsNaN(order) {
			fmt.Printf("%6d %14.6f %13.2e %12s\n", n, nuEff, rel, "—")
		} else {
			fmt.Printf("%6d %14.6f %13.2e %12.2f\n", n, nuEff, rel, order)
		}
		prevErr, prevN = rel, n
	}
	fmt.Println("\nLBM with BGK collision is second-order accurate in space;")
	fmt.Println("the measured order should approach 2 as N grows.")
}

// measureViscosity runs the vortex on an n×n grid and extracts the
// effective viscosity from the kinetic-energy decay.
func measureViscosity(n int, tau float64, steps int) (float64, error) {
	l, err := core.NewLattice(&lattice.D2Q9, n, n, 1, tau)
	if err != nil {
		return 0, err
	}
	// Diffusive scaling: u0 ∝ 1/N keeps the Mach-number (compressibility)
	// error shrinking together with the lattice error, revealing the
	// scheme's second-order convergence.
	u0 := 0.16 / float64(n)
	k := 2 * math.Pi / float64(n)
	// Consistent initialization: the analytic macroscopic field plus its
	// non-equilibrium part (core.InitFromMacro), which removes the
	// equilibrium-initialization startup transient.
	m := &core.MacroField{
		NX: n, NY: n, NZ: 1,
		Rho: make([]float64, n*n),
		Ux:  make([]float64, n*n),
		Uy:  make([]float64, n*n),
		Uz:  make([]float64, n*n),
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			i := m.Idx(x, y, 0)
			m.Rho[i] = 1
			m.Ux[i] = u0 * math.Sin(k*float64(x)) * math.Cos(k*float64(y))
			m.Uy[i] = -u0 * math.Cos(k*float64(x)) * math.Sin(k*float64(y))
		}
	}
	if err := l.InitFromMacro(m); err != nil {
		return 0, err
	}
	energy := func() float64 {
		e := 0.0
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				m := l.MacroAt(x, y, 0)
				e += m.Ux*m.Ux + m.Uy*m.Uy
			}
		}
		return e
	}
	// Equilibrium initialisation lacks the solution's non-equilibrium
	// part, which perturbs the first few steps; measure the decay rate
	// between two post-transient times instead of from t=0.
	var wraps boundary.Set
	wraps.Add(&boundary.Periodic{Axis: 0}, &boundary.Periodic{Axis: 1}, &boundary.Periodic{Axis: 2})
	pool := core.NewPool(l, 0)
	defer pool.Close()
	burnin := steps / 4
	for s := 0; s < burnin; s++ {
		pool.StepFaces(&wraps)
	}
	e1 := energy()
	for s := burnin; s < steps; s++ {
		pool.StepFaces(&wraps)
	}
	e2 := energy()
	// e2/e1 = exp(−4 ν_eff k² Δt)  ⇒  ν_eff = −ln(e2/e1)/(4 k² Δt).
	return -math.Log(e2/e1) / (4 * k * k * float64(steps-burnin)), nil
}
