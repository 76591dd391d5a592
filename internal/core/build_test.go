package core

import (
	"fmt"
	"math"
	"testing"

	"sunwaylb/internal/lattice"
)

// buildByDefinition is the per-cell construction BuildLattice replaces,
// written out: every flag Ghost, the interior Fluid, the rest equilibrium
// everywhere, then SetWall where walls holds and SetCell of init's state
// on every fluid cell.
func buildByDefinition(t *testing.T, d *lattice.Descriptor, b Box, walls WallsFunc, init InitFunc) *Lattice {
	t.Helper()
	l, err := NewLattice(d, b.NX, b.NY, b.NZ, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l.Flags {
		l.Flags[i] = Ghost
	}
	for y := 0; y < b.NY; y++ {
		for x := 0; x < b.NX; x++ {
			for z := 0; z < b.NZ; z++ {
				l.Flags[l.Idx(x, y, z)] = Fluid
			}
		}
	}
	l.InitEquilibrium(1, 0, 0, 0)
	for y := 0; y < b.NY; y++ {
		for x := 0; x < b.NX; x++ {
			for z := 0; z < b.NZ; z++ {
				if walls != nil && walls(b.X0+x, b.Y0+y, b.Z0+z) {
					l.SetWall(x, y, z)
				}
			}
		}
	}
	for y := 0; y < b.NY; y++ {
		for x := 0; x < b.NX; x++ {
			for z := 0; z < b.NZ; z++ {
				if init != nil && l.CellTypeAt(x, y, z) == Fluid {
					rho, ux, uy, uz := init(b.X0+x, b.Y0+y, b.Z0+z)
					l.SetCell(x, y, z, rho, ux, uy, uz)
				}
			}
		}
	}
	return l
}

// cellHash is a seeded pure function of the global coordinates, so the
// callbacks are random yet agree however often and in whatever order they
// are called.
func cellHash(seed uint64, gx, gy, gz int) uint64 {
	h := seed ^ uint64(gx)*0x9e3779b97f4a7c15 ^ uint64(gy)*0xbf58476d1ce4e5b9 ^ uint64(gz)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	return h ^ h>>32
}

// sameLattice fails unless a and b hold bitwise the same flags, wall
// velocities and population slots in both buffers.
func sameLattice(t *testing.T, what string, a, b *Lattice) {
	t.Helper()
	for i := range a.Flags {
		if a.Flags[i] != b.Flags[i] {
			t.Fatalf("%s: flag %d is %v, definition %v", what, i, a.Flags[i], b.Flags[i])
		}
	}
	if len(a.WallVel) != 0 || len(b.WallVel) != 0 {
		t.Fatalf("%s: wall velocities %v and %v", what, a.WallVel, b.WallVel)
	}
	for k := range a.F {
		if (a.F[k] == nil) != (b.F[k] == nil) || len(a.F[k]) != len(b.F[k]) {
			t.Fatalf("%s: buffer %d has %d slots, definition %d", what, k, len(a.F[k]), len(b.F[k]))
		}
		for i := range a.F[k] {
			if math.Float64bits(a.F[k][i]) != math.Float64bits(b.F[k][i]) {
				t.Fatalf("%s: buffer %d slot %d is %v, definition %v", what, k, i, a.F[k][i], b.F[k][i])
			}
		}
	}
}

// TestBuildMatchesDefinition anchors the row-wise builder to the per-cell
// construction, bit for bit in every flag and every population slot: random
// walls and random initial states (ρ ≠ 1, sheared u, runs of equal states),
// either callback nil, on every descriptor, at non-zero block origins and
// on one-cell-thin blocks — and the built lattice steps exactly like the
// defined one on AA storage at both parities.
func TestBuildMatchesDefinition(t *testing.T) {
	walls := func(gx, gy, gz int) bool { return cellHash(1, gx, gy, gz)%4 == 0 }
	init := func(gx, gy, gz int) (rho, ux, uy, uz float64) {
		h := cellHash(2, gx, gy, gz)
		switch h % 5 {
		case 0, 1:
			// Runs of the same state, which share one equilibrium.
			return 1.02, 0.03, 0, -0.01
		case 2:
			return 1.02, 0.03, 0.01 * float64(gz%3), -0.01 // that state but for uy
		case 3:
			return 1.02, 0.03, 0, 0.01 * float64(gx%3-1) // that state but for uz
		}
		r := float64(h>>11) / (1 << 53)
		return 0.95 + 0.1*r, 0.01 * float64(gy), 0.04 * (r - 0.5), 0.002 * float64(gx-gz)
	}
	callbacks := []struct {
		name  string
		walls WallsFunc
		init  InitFunc
	}{
		{"walls+init", walls, init},
		{"init", nil, init},
		{"walls", walls, nil},
		{"none", nil, nil},
	}
	boxes := []Box{
		{NX: 5, NY: 4, NZ: 6},
		{X0: 7, Y0: 3, Z0: 2, NX: 4, NY: 6, NZ: 5},
		{X0: 2, Y0: 9, Z0: 4, NX: 1, NY: 5, NZ: 3},
		{X0: 1, Y0: 1, Z0: 1, NX: 3, NY: 1, NZ: 1},
	}
	for _, d := range []*lattice.Descriptor{&lattice.D2Q9, &lattice.D3Q19, &lattice.D3Q27} {
		for _, b := range boxes {
			if d.Name == "D2Q9" {
				b.NZ = 1
			}
			for _, cb := range callbacks {
				name := fmt.Sprintf("%s/%+v/%s", d.Name, b, cb.name)
				got, err := BuildLattice(d, b, 0.7, cb.walls, cb.init)
				if err != nil {
					t.Fatal(err)
				}
				want := buildByDefinition(t, d, b, cb.walls, cb.init)
				sameLattice(t, name, got, want)
				got.EnableAA()
				want.EnableAA()
				for s := 1; s <= 2; s++ {
					got.StepFused()
					want.StepFused()
					sameLattice(t, fmt.Sprintf("%s after %d AA steps", name, s), got, want)
				}
			}
		}
	}
}
