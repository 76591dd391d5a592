package core

import (
	"math"
	"testing"

	"sunwaylb/internal/lattice"
)

// buildKernelTestLattice builds a state exercising walls, moving walls and
// shear so every gather branch runs.
func buildKernelTestLattice(t testing.TB) *Lattice {
	t.Helper()
	l, err := NewLattice(&lattice.D3Q19, 10, 9, 8, 0.63)
	if err != nil {
		t.Fatal(err)
	}
	l.SetWall(4, 4, 4)
	l.SetWall(5, 4, 4)
	l.SetMovingWall(2, 7, 3, 0.04, 0, 0.01)
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			for z := 0; z < l.NZ; z++ {
				if l.CellTypeAt(x, y, z) == Fluid {
					l.SetCell(x, y, z, 1+0.01*math.Sin(float64(x+2*y)),
						0.03*math.Sin(0.5*float64(z)), -0.02*math.Cos(0.4*float64(x)),
						0.01*math.Sin(0.3*float64(y)))
				}
			}
		}
	}
	return l
}

// TestUnrolledKernelBitIdentical: the unrolled D3Q19 AA row must reproduce
// the generic sweep (the one collision operator) bit for bit at both
// storage parities, including around static and moving walls.
func TestUnrolledKernelBitIdentical(t *testing.T) {
	fast := buildKernelTestLattice(t)
	slow := buildKernelTestLattice(t)
	fast.EnableAA()
	slow.EnableAA()
	slow.noFastPath = true
	if !fast.useFastPath() {
		t.Fatal("fast path must be active for plain D3Q19 on AA storage")
	}
	if slow.useFastPath() {
		t.Fatal("testing hook must disable the fast path")
	}
	for s := 1; s <= 12; s++ {
		fast.PeriodicAll()
		fast.StepFused()
		slow.PeriodicAll()
		slow.StepFused()
		fa, fb := fast.Src(), slow.Src()
		for i := range fa {
			if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
				t.Fatalf("step %d: unrolled row diverged from generic at %d: %v vs %v", s, i, fa[i], fb[i])
			}
		}
	}
}

// TestFastPathGating: the double buffer, LES, body forces and non-D3Q19
// descriptors must step the generic sweep.
func TestFastPathGating(t *testing.T) {
	l, err := NewLattice(&lattice.D3Q19, 4, 4, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if l.useFastPath() {
		t.Error("the double buffer has no unrolled kernel")
	}
	l.EnableAA()
	if !l.useFastPath() {
		t.Error("plain D3Q19 on AA storage must use the fast path")
	}
	l.Smagorinsky = 0.17
	if l.useFastPath() {
		t.Error("LES must disable the fast path")
	}
	l.Smagorinsky = 0
	l.Force = [3]float64{1e-6, 0, 0}
	if l.useFastPath() {
		t.Error("body force must disable the fast path")
	}
	l2, err := NewLattice(&lattice.D3Q15, 4, 4, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	l2.EnableAA()
	if l2.useFastPath() {
		t.Error("D3Q15 must not use the D3Q19 fast path")
	}
}

// BenchmarkKernelGeneric48 times the double-buffer reference step (the
// generic sweep); BenchmarkAAStep48 is the unrolled row on the same grid.
func BenchmarkKernelGeneric48(b *testing.B) {
	l, err := NewLattice(&lattice.D3Q19, 48, 48, 48, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	cells := float64(48 * 48 * 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.PeriodicAll()
		l.StepFused()
	}
	b.StopTimer()
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
}
