// Quickstart: the lid-driven cavity — the "hello world" of LBM solvers.
//
// A closed box of fluid is driven by its moving lid; a primary vortex
// forms and the flow converges to a steady state. This example shows the
// minimal SunwayLB-Go API: build a lattice, attach boundary conditions,
// step, and read macroscopic fields.
//
// Usage:
//
//	go run ./examples/quickstart [-n 32] [-steps 2000] [-re 100]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/config"
	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/vis"
)

func main() {
	log.SetFlags(0)
	n := flag.Int("n", 32, "cavity size in cells per side")
	steps := flag.Int("steps", 2000, "time steps")
	re := flag.Float64("re", 100, "Reynolds number")
	out := flag.String("out", "cavity.ppm", "mid-plane speed image (empty to skip)")
	flag.Parse()

	const uLid = 0.1
	tau, err := config.TauForReynolds(*re, uLid, float64(*n))
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}
	lat, err := core.NewLattice(&lattice.D3Q19, *n, *n, *n, tau)
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}

	// Five no-slip walls and a lid moving in +x at y = NY−1.
	var bcs boundary.Set
	bcs.Add(
		&boundary.NoSlip{Face: core.FaceXMin}, &boundary.NoSlip{Face: core.FaceXMax},
		&boundary.NoSlip{Face: core.FaceZMin}, &boundary.NoSlip{Face: core.FaceZMax},
		&boundary.NoSlip{Face: core.FaceYMin},
		&boundary.MovingNoSlip{Face: core.FaceYMax, U: [3]float64{uLid, 0, 0}},
	)

	fmt.Printf("lid-driven cavity: %d³ cells, Re=%g, tau=%.4f, %d steps\n",
		*n, *re, tau, *steps)

	prev := math.Inf(1)
	pool := core.NewPool(lat, 0)
	defer pool.Close()
	for s := 1; s <= *steps; s++ {
		pool.StepFaces(&bcs)
		if rep := max(1, *steps/10); s%rep == 0 {
			// Convergence monitor: change of the centre velocity.
			m := lat.MacroAt(*n/2, *n/2, *n/2)
			v := math.Hypot(m.Ux, m.Uy)
			fmt.Printf("  step %5d: centre |u|=%.6f  (Δ=%.2e)  mass=%.6f\n",
				s, v, math.Abs(v-prev), lat.TotalMass()/float64(lat.FluidCells()))
			prev = v
		}
	}

	// The classic cavity diagnostic: u_x along the vertical centreline.
	fmt.Println("\nvertical centreline u_x/U_lid profile:")
	for _, frac := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		y := int(frac * float64(*n-1))
		m := lat.MacroAt(*n/2, y, *n/2)
		fmt.Printf("  y/H=%.2f  u_x/U=% .4f\n", frac, m.Ux/uLid)
	}
	m := lat.ComputeMacro()
	fmt.Printf("\ncompleted %d steps over %d fluid cells\n", lat.Step(), lat.FluidCells())

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("quickstart: %v", err)
		}
		defer f.Close()
		if err := vis.WritePPM(f, vis.SpeedSlice(m, vis.AxisZ, *n/2), 0, 0); err != nil {
			log.Fatalf("quickstart: %v", err)
		}
		fmt.Printf("wrote mid-plane speed image to %s\n", *out)
	}
}
