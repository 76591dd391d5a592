// Wind flow over a synthetic urban area — the paper's flagship application
// (§V-C, Fig. 19: a 1 km × 1 km Shanghai district at 0.1 m resolution, 271
// billion cells, LES on 10.4 million cores). This functional version runs
// the same pipeline — city generation, voxelization, Smagorinsky LES, a
// boundary-layer inlet profile — on a laptop-scale grid, and reports the
// quantities the wind-energy use case needs: the velocity field at
// pedestrian and rooftop heights and the vertical wind profile.
//
// Usage:
//
//	go run ./examples/urbanwind [-steps 600]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/geometry"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/vis"
)

func main() {
	log.SetFlags(0)
	steps := flag.Int("steps", 600, "time steps")
	out := flag.String("out", "urban_speed.ppm", "pedestrian-level speed image (empty to skip)")
	flag.Parse()

	const (
		nx, ny, nz = 96, 96, 24
		uWind      = 0.08 // the paper's 8 m/s inlet, in lattice units
		tau        = 0.52 // high-Re: LES supplies the subgrid viscosity
	)
	// A deterministic synthetic city: the solver sees the same kind of
	// voxelized obstacle field as the paper's GIS-derived Shanghai
	// district (the substitution documented in DESIGN.md).
	params := geometry.DefaultUrbanParams()
	params.SizeX, params.SizeY = float64(nx), float64(ny)
	params.BlocksX, params.BlocksY = 6, 6
	params.MinHeight, params.MaxHeight = 4, float64(nz)*0.7
	city := geometry.City(params)
	g := geometry.VoxelGrid{NX: nx, NY: ny, NZ: nz, H: 1}

	// Boundary-layer inlet: a power-law wind profile u(z) ∝ (z/H)^α. The
	// flow starts from it everywhere.
	profile := func(x, y, z int) [3]float64 {
		u := uWind * math.Pow((float64(z)+0.5)/float64(nz), 0.25)
		return [3]float64{u, 0, 0}
	}
	lat, err := core.BuildLattice(&lattice.D3Q19, core.Box{NX: nx, NY: ny, NZ: nz}, tau,
		g.Walls(geometry.Voxelize(city, g)),
		func(x, y, z int) (rho, ux, uy, uz float64) {
			u := profile(x, y, z)
			return 1, u[0], u[1], u[2]
		})
	if err != nil {
		log.Fatalf("urbanwind: %v", err)
	}
	lat.Smagorinsky = 0.17
	solid := nx*ny*nz - lat.FluidCells()
	fmt.Printf("urban wind LES: %d×%d×%d cells, %d building cells (%.1f%%), %d steps\n",
		nx, ny, nz, solid, 100*float64(solid)/float64(nx*ny*nz), *steps)
	var bcs boundary.Set
	bcs.Add(
		&boundary.Periodic{Axis: 1},
		&boundary.VelocityInlet{Face: core.FaceXMin, Profile: profile},
		&boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
		&boundary.FreeSlip{Face: core.FaceZMax},
		&boundary.NoSlip{Face: core.FaceZMin},
	)

	stats := vis.NewStatistics(nx, ny, nz)
	pool := core.NewPool(lat, 0)
	defer pool.Close()
	for s := 1; s <= *steps; s++ {
		pool.StepFaces(&bcs)
		if s > *steps/2 {
			if err := stats.Add(lat.ComputeMacro()); err != nil {
				log.Fatalf("urbanwind: %v", err)
			}
		}
		if rep := max(1, *steps/6); s%rep == 0 {
			fmt.Printf("  step %4d: max|u|=%.3f\n", s, lat.MaxVelocity())
		}
	}

	m := lat.ComputeMacro()
	// Vertical wind profile averaged over the outflow half of the domain
	// — what a wind-turbine siting study reads off first.
	fmt.Println("\nmean wind profile (downstream half):")
	for z := 1; z < nz; z += 4 {
		sum, cnt := 0.0, 0
		for y := 0; y < ny; y++ {
			for x := nx / 2; x < nx; x++ {
				i := m.Idx(x, y, z)
				if m.Rho[i] > 0 {
					sum += m.Ux[i]
					cnt++
				}
			}
		}
		if cnt > 0 {
			bar := int(40 * sum / float64(cnt) / uWind)
			if bar < 0 {
				bar = 0
			}
			fmt.Printf("  z=%2d  u/U=%5.2f  %s\n", z, sum/float64(cnt)/uWind, bars(bar))
		}
	}

	// Wind-energy metrics at a rooftop monitoring site: mean speed and
	// turbulence intensity (time-averaged over the second half of the
	// run).
	mean := stats.Mean()
	site := mean.Idx(nx/2, ny/2, nz-4)
	meanU := math.Sqrt(mean.Ux[site]*mean.Ux[site] + mean.Uy[site]*mean.Uy[site] + mean.Uz[site]*mean.Uz[site])
	fmt.Printf("\nrooftop site (%d,%d,%d): mean |u|/U=%.2f, turbulence intensity %.1f%%\n",
		nx/2, ny/2, nz-4, meanU/uWind, 100*stats.TurbulenceIntensity(site, meanU))

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("urbanwind: %v", err)
		}
		defer f.Close()
		// Pedestrian level ≈ 2 cells above ground.
		if err := vis.WritePPM(f, vis.SpeedSlice(m, vis.AxisZ, 2), 0, 0); err != nil {
			log.Fatalf("urbanwind: %v", err)
		}
		fmt.Printf("\nwrote pedestrian-level speed image to %s\n", *out)
	}
}

func bars(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
