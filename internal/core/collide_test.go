package core

import (
	"math"
	"math/rand"
	"testing"

	"sunwaylb/internal/lattice"
)

// relaxByDefinition is the collision written out per direction from the
// model's equations — moments, lattice.Equilibrium(i, …), the Smagorinsky
// closure, BGK relaxation and the Guo source term — sharing no code with
// Collider.Relax beyond the canonical equilibrium.
func relaxByDefinition(d *lattice.Descriptor, tau, csmag float64, force [3]float64, f []float64) []float64 {
	var rho, jx, jy, jz float64
	for i, fi := range f {
		rho += fi
		jx += fi * float64(d.C[i][0])
		jy += fi * float64(d.C[i][1])
		jz += fi * float64(d.C[i][2])
	}
	ux, uy, uz := jx*(1/rho), jy*(1/rho), jz*(1/rho)
	forced := force != [3]float64{}
	if forced {
		ux += 0.5 * (1 / rho) * force[0]
		uy += 0.5 * (1 / rho) * force[1]
		uz += 0.5 * (1 / rho) * force[2]
	}
	omega := 1 / tau
	if csmag > 0 {
		var pi [3][3]float64
		for i, fi := range f {
			fneq := fi - d.Equilibrium(i, rho, ux, uy, uz)
			for a := 0; a < 3; a++ {
				for b := a; b < 3; b++ {
					pi[a][b] += fneq * float64(d.C[i][a]) * float64(d.C[i][b])
				}
			}
		}
		norm := math.Sqrt(pi[0][0]*pi[0][0] + pi[1][1]*pi[1][1] + pi[2][2]*pi[2][2] +
			2*(pi[0][1]*pi[0][1]+pi[0][2]*pi[0][2]+pi[1][2]*pi[1][2]))
		omega = 1 / (0.5 * (tau + math.Sqrt(tau*tau+18*math.Sqrt2*csmag*csmag*norm/rho)))
	}
	out := make([]float64, len(f))
	for i, fi := range f {
		out[i] = math.FMA(-omega, fi-d.Equilibrium(i, rho, ux, uy, uz), fi)
		if forced {
			cx, cy, cz := float64(d.C[i][0]), float64(d.C[i][1]), float64(d.C[i][2])
			cu := cx*ux + cy*uy + cz*uz
			cf := cx*force[0] + cy*force[1] + cz*force[2]
			out[i] += (1 - 0.5*omega) * (d.W[i] * (3*((cx-ux)*force[0]+(cy-uy)*force[1]+(cz-uz)*force[2]) + 9*cu*cf))
		}
	}
	return out
}

// TestRelaxMatchesDefinition anchors the one collision operator to the
// equations it implements, bit for bit, on every descriptor and every
// combination of LES and body force — and pins that it may run in place.
func TestRelaxMatchesDefinition(t *testing.T) {
	configs := []struct {
		name  string
		csmag float64
		force [3]float64
	}{
		{"plain", 0, [3]float64{}},
		{"les", 0.17, [3]float64{}},
		{"forced", 0, [3]float64{1e-5, -2e-5, 3e-6}},
		{"les+forced", 0.12, [3]float64{-4e-6, 1e-5, 2e-5}},
	}
	for _, d := range []*lattice.Descriptor{&lattice.D2Q9, &lattice.D3Q15, &lattice.D3Q19, &lattice.D3Q27} {
		for _, cfg := range configs {
			t.Run(d.Name+"/"+cfg.name, func(t *testing.T) {
				l, err := NewLattice(d, 2, 2, 2, 0.63)
				if err != nil {
					t.Fatal(err)
				}
				l.Smagorinsky, l.Force = cfg.csmag, cfg.force
				col := l.Collider()
				rng := rand.New(rand.NewSource(int64(d.Q)))
				f := make([]float64, d.Q)
				out := make([]float64, d.Q)
				for trial := 0; trial < 50; trial++ {
					d.EquilibriumAll(f, 0.9+0.2*rng.Float64(),
						0.1*(rng.Float64()-0.5), 0.1*(rng.Float64()-0.5), 0.1*(rng.Float64()-0.5))
					for i := range f {
						f[i] *= 1 + 0.1*(rng.Float64()-0.5)
					}
					want := relaxByDefinition(d, l.Tau, cfg.csmag, cfg.force, f)
					col.Relax(f, out)
					for i := range want {
						if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
							t.Fatalf("trial %d pop %d: Relax %v, definition %v", trial, i, out[i], want[i])
						}
					}
					col.Relax(f, f)
					for i := range want {
						if math.Float64bits(f[i]) != math.Float64bits(want[i]) {
							t.Fatalf("trial %d pop %d: in-place Relax %v, out-of-place %v", trial, i, f[i], want[i])
						}
					}
				}
			})
		}
	}
}
