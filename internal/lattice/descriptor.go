// Package lattice defines the DnQm velocity-set descriptors used by the
// lattice Boltzmann solver: the discrete velocity vectors, quadrature
// weights, opposite-direction tables and the equilibrium distribution of
// the LBGK model (Qian et al., 1992).
//
// The primary descriptor is D3Q19, matching Fig. 3 of the SunwayLB paper;
// D2Q9, D3Q15 and D3Q27 are provided for completeness and testing.
package lattice

import (
	"fmt"
	"math"
)

// Descriptor describes a DnQm lattice: the dimension, the discrete velocity
// set, the quadrature weights and the index of the opposite velocity for
// each direction (used by bounce-back boundaries).
type Descriptor struct {
	// Name is the conventional scheme name, e.g. "D3Q19".
	Name string
	// D is the spatial dimension (2 or 3).
	D int
	// Q is the number of discrete velocities.
	Q int
	// C holds the lattice velocity vectors; C[i] is the i-th velocity.
	// For 2-D descriptors the z component is zero.
	C [][3]int
	// W holds the quadrature weight of each velocity.
	W []float64
	// Opp[i] is the index j such that C[j] == -C[i].
	Opp []int

	// cf is C converted to float64 once, for the moment and equilibrium
	// loops.
	cf [][3]float64
	// out[2a] lists, ascending, the velocities with c[a] < 0 and out[2a+1]
	// those with c[a] > 0 (see Leaving).
	out [6][]int
}

// CS2 is the squared lattice speed of sound, c_s² = 1/3, shared by all
// standard DnQm descriptors.
const CS2 = 1.0 / 3.0

// InvCS2 is 1/c_s² = 3.
const InvCS2 = 3.0

// buildOpp computes the opposite-direction table and verifies the weights
// sum to one. It panics on a malformed table; descriptors are package-level
// constants so this runs (and is exercised) at init time.
func buildOpp(name string, c [][3]int, w []float64) Descriptor {
	q := len(c)
	if len(w) != q {
		panic(fmt.Sprintf("lattice: %s has %d velocities but %d weights", name, q, len(w)))
	}
	sum := 0.0
	for _, wi := range w {
		sum += wi
	}
	if diff := sum - 1.0; diff > 1e-12 || diff < -1e-12 {
		panic(fmt.Sprintf("lattice: %s weights sum to %v, want 1", name, sum))
	}
	opp := make([]int, q)
	for i := range opp {
		opp[i] = -1
	}
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			if c[j][0] == -c[i][0] && c[j][1] == -c[i][1] && c[j][2] == -c[i][2] {
				opp[i] = j
				break
			}
		}
		if opp[i] < 0 {
			panic(fmt.Sprintf("lattice: %s direction %d has no opposite", name, i))
		}
	}
	d := 3
	if name[1] == '2' {
		d = 2
	}
	cf := make([][3]float64, q)
	for i, ci := range c {
		cf[i] = [3]float64{float64(ci[0]), float64(ci[1]), float64(ci[2])}
	}
	var out [6][]int
	for f := range out {
		axis, sign := f/2, 2*(f%2)-1
		for i, ci := range c {
			if ci[axis]*sign > 0 {
				out[f] = append(out[f], i)
			}
		}
	}
	return Descriptor{Name: name, D: d, Q: q, C: c, W: w, Opp: opp, cf: cf, out: out}
}

// Leaving returns, ascending, the velocities that leave a block through
// its face number face: 2·a is the minus side of axis a (c[a] < 0), 2·a+1
// the plus side (c[a] > 0), in the order of core.Face. The slice is the
// descriptor's own; callers must not modify it.
func (d *Descriptor) Leaving(face int) []int { return d.out[face] }

// D3Q19 is the three-dimensional 19-velocity descriptor used throughout the
// paper: the rest velocity, the 6 face neighbours and the 12 edge
// neighbours of the unit cube.
var D3Q19 = buildOpp("D3Q19",
	[][3]int{
		{0, 0, 0},
		{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
		{1, 1, 0}, {-1, -1, 0}, {1, -1, 0}, {-1, 1, 0},
		{1, 0, 1}, {-1, 0, -1}, {1, 0, -1}, {-1, 0, 1},
		{0, 1, 1}, {0, -1, -1}, {0, 1, -1}, {0, -1, 1},
	},
	[]float64{
		1.0 / 3.0,
		1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0,
		1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
		1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
		1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
	})

// D2Q9 is the standard two-dimensional 9-velocity descriptor.
var D2Q9 = buildOpp("D2Q9",
	[][3]int{
		{0, 0, 0},
		{1, 0, 0}, {0, 1, 0}, {-1, 0, 0}, {0, -1, 0},
		{1, 1, 0}, {-1, 1, 0}, {-1, -1, 0}, {1, -1, 0},
	},
	[]float64{
		4.0 / 9.0,
		1.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0,
		1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
	})

// D3Q15 is the three-dimensional 15-velocity descriptor (rest, 6 faces,
// 8 cube corners).
var D3Q15 = buildOpp("D3Q15",
	[][3]int{
		{0, 0, 0},
		{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
		{1, 1, 1}, {-1, -1, -1}, {1, 1, -1}, {-1, -1, 1},
		{1, -1, 1}, {-1, 1, -1}, {-1, 1, 1}, {1, -1, -1},
	},
	[]float64{
		2.0 / 9.0,
		1.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0,
		1.0 / 72.0, 1.0 / 72.0, 1.0 / 72.0, 1.0 / 72.0,
		1.0 / 72.0, 1.0 / 72.0, 1.0 / 72.0, 1.0 / 72.0,
	})

// D3Q27 is the full three-dimensional 27-velocity descriptor.
var D3Q27 = buildD3Q27()

func buildD3Q27() Descriptor {
	var c [][3]int
	var w []float64
	for z := -1; z <= 1; z++ {
		for y := -1; y <= 1; y++ {
			for x := -1; x <= 1; x++ {
				c = append(c, [3]int{x, y, z})
				switch x*x + y*y + z*z {
				case 0:
					w = append(w, 8.0/27.0)
				case 1:
					w = append(w, 2.0/27.0)
				case 2:
					w = append(w, 1.0/54.0)
				case 3:
					w = append(w, 1.0/216.0)
				}
			}
		}
	}
	return buildOpp("D3Q27", c, w)
}

// Equilibrium computes the LBGK equilibrium distribution f_i^eq for density
// rho and velocity (ux, uy, uz) in direction i:
//
//	f_i^eq = w_i ρ (1 + 3 c·u + 4.5 (c·u)² − 1.5 u²)
//
// The expression is evaluated in the repo's canonical fused-multiply-add
// order — w_i·ρ · (fma(4.5·cu, cu, 1 − 1.5|u|²) + 3·cu) — which every
// kernel (generic, unrolled, AA, vectorized) reproduces exactly, so any
// two backends agree bit-for-bit. math.FMA is correctly rounded on every
// platform, so the canon is portable-deterministic.
func (d *Descriptor) Equilibrium(i int, rho, ux, uy, uz float64) float64 {
	c := d.C[i]
	cu := float64(c[0])*ux + float64(c[1])*uy + float64(c[2])*uz
	onem := 1 - 1.5*math.FMA(uz, uz, math.FMA(uy, uy, ux*ux))
	h := 4.5 * cu
	return d.W[i] * rho * (math.FMA(h, cu, onem) + 3*cu)
}

// EquilibriumAll fills feq (length Q) with the equilibrium distribution for
// the given macroscopic state, in the canonical FMA evaluation order (see
// Equilibrium). It allocates nothing.
func (d *Descriptor) EquilibriumAll(feq []float64, rho, ux, uy, uz float64) {
	onem := 1 - 1.5*math.FMA(uz, uz, math.FMA(uy, uy, ux*ux))
	cs, ws := d.cf[:d.Q], d.W[:d.Q]
	feq = feq[:d.Q]
	for i := range feq {
		c := &cs[i]
		cu := c[0]*ux + c[1]*uy + c[2]*uz
		h := 4.5 * cu
		feq[i] = ws[i] * rho * (math.FMA(h, cu, onem) + 3*cu)
	}
}

// Moments computes the macroscopic density and momentum from a set of
// populations f (length Q). The velocity is momentum divided by density.
func (d *Descriptor) Moments(f []float64) (rho, jx, jy, jz float64) {
	cs := d.cf[:d.Q]
	for i, fi := range f[:d.Q] {
		rho += fi
		c := &cs[i]
		jx += fi * c[0]
		jy += fi * c[1]
		jz += fi * c[2]
	}
	return
}

// Viscosity returns the lattice kinematic viscosity corresponding to the
// relaxation time τ: ν = (2τ−1)/6.
func Viscosity(tau float64) float64 { return (2*tau - 1) / 6 }

// Tau returns the relaxation time corresponding to the lattice kinematic
// viscosity ν: τ = 3ν + 1/2.
func Tau(nu float64) float64 { return 3*nu + 0.5 }
