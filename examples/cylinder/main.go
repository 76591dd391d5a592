// Flow past a circular cylinder — the paper's primary validation benchmark
// (§V-A-1, Fig. 12, at Re=3900 and 5.6 trillion cells on the real
// machine; here a functional laptop-scale run at Re≈100 that resolves the
// same physics: boundary-layer separation and the von Kármán vortex
// street).
//
// The run reports the drag coefficient and the Strouhal number of the
// shedding, and writes a vorticity snapshot — the quantities a CFD user
// checks against the literature (Cd ≈ 1.3–1.5, St ≈ 0.16–0.17 at Re=100
// for a confined cylinder).
//
// Usage:
//
//	go run ./examples/cylinder [-steps 8000] [-re 100]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/config"
	"sunwaylb/internal/core"
	"sunwaylb/internal/geometry"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/perf"
	"sunwaylb/internal/vis"
)

func main() {
	log.SetFlags(0)
	steps := flag.Int("steps", 8000, "time steps")
	re := flag.Float64("re", 100, "Reynolds number")
	out := flag.String("out", "cylinder_vorticity.ppm", "vorticity image (empty to skip)")
	flag.Parse()

	const (
		nx, ny, nz = 260, 120, 1 // quasi-2D: one periodic z layer
		diameter   = 16.0
		uIn        = 0.08
	)
	tau, err := config.TauForReynolds(*re, uIn, diameter)
	if err != nil {
		log.Fatalf("cylinder: %v", err)
	}
	// Voxelize the cylinder (axis along z) one third into the domain, and
	// start impulsively with a tiny asymmetry to trigger shedding.
	cyl := geometry.CylinderZ{CX: 65, CY: 60.5, Radius: diameter / 2, ZMin: -1, ZMax: nz + 1}
	g := geometry.VoxelGrid{NX: nx, NY: ny, NZ: nz, H: 1}
	init := func(x, y, _ int) (rho, ux, uy, uz float64) {
		if x > 65 && x < 90 && y > 60 {
			uy = 0.01
		}
		return 1.0, uIn, uy, 0
	}
	lat, err := core.BuildLattice(&lattice.D3Q19, core.Box{NX: nx, NY: ny, NZ: nz}, tau,
		g.Walls(geometry.Voxelize(cyl, g)), init)
	if err != nil {
		log.Fatalf("cylinder: %v", err)
	}

	var bcs boundary.Set
	bcs.Add(
		&boundary.Periodic{Axis: 2},
		&boundary.FreeSlip{Face: core.FaceYMin},
		&boundary.FreeSlip{Face: core.FaceYMax},
		&boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{uIn, 0, 0}},
		&boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
	)

	fmt.Printf("flow past cylinder: %d×%d, D=%g, Re=%g, tau=%.4f, %d steps\n",
		nx, ny, diameter, *re, tau, *steps)

	// Track the lift force and a wake velocity probe to measure the
	// shedding frequency two independent ways.
	var liftHist []float64
	var probes core.ProbeSet
	wake, err := probes.Add(lat, 100, 60, 0)
	if err != nil {
		log.Fatalf("cylinder: %v", err)
	}
	warmup := *steps / 2
	pool := core.NewPool(lat, 0)
	defer pool.Close()
	for s := 1; s <= *steps; s++ {
		pool.StepFaces(&bcs)
		if s > warmup {
			_, fy, _ := lat.WallForce()
			liftHist = append(liftHist, fy)
			probes.Sample(lat)
		}
		if rep := max(1, *steps/8); s%rep == 0 {
			fx, fy, _ := lat.WallForce()
			cd := fx / (0.5 * uIn * uIn * diameter * nz)
			fmt.Printf("  step %5d: Cd=%.3f  Cl=%+.3f  max|u|=%.3f\n",
				s, cd, fy/(0.5*uIn*uIn*diameter*nz), lat.MaxVelocity())
		}
	}

	// Mean drag over the sampled window.
	fx, _, _ := lat.WallForce()
	cd := fx / (0.5 * uIn * uIn * diameter * nz)
	fmt.Printf("\nfinal drag coefficient Cd = %.3f (literature ≈1.3–1.5 at Re=100)\n", cd)

	// Strouhal number from the lift signal and, independently, from the
	// transverse velocity at a wake probe.
	if period, ok := perf.DominantPeriod(liftHist); ok {
		fmt.Printf("Strouhal number St = %.3f from lift (literature ≈0.16–0.17 at Re=100)\n",
			diameter/uIn/period)
	} else {
		fmt.Println("shedding not yet periodic — increase -steps to measure St")
	}
	if period, ok := perf.DominantPeriod(wake.Component(1)); ok {
		fmt.Printf("Strouhal number St = %.3f from the wake probe at (100,60)\n",
			diameter/uIn/period)
	}

	if *out != "" {
		m := lat.ComputeMacro()
		wz := vis.VorticityZ(m)
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("cylinder: %v", err)
		}
		defer f.Close()
		s := vis.FieldSlice(m, wz, vis.AxisZ, 0)
		if err := vis.WritePPM(f, s, -0.02, 0.02); err != nil {
			log.Fatalf("cylinder: %v", err)
		}
		fmt.Printf("wrote vorticity snapshot to %s\n", *out)
	}
}
