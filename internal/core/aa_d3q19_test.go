package core

import (
	"math"
	"math/rand"
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

// buildHaloWallLattice is wider than the sweep's flag window (rowChunk)
// and has walls where only the halo holds them: a no-slip face at y−, a
// moving face at y+ (as boundary.NoSlip and MovingNoSlip set them up) and
// single wall cells at both z ends of two rows.
func buildHaloWallLattice(t testing.TB) *Lattice {
	t.Helper()
	l, err := NewLattice(&lattice.D3Q19, rowChunk+6, 5, 9, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	l.SetWall(rowChunk+1, 2, 5)
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			for z := 0; z < l.NZ; z++ {
				if l.CellTypeAt(x, y, z) == Fluid {
					l.SetCell(x, y, z, 1+0.01*math.Cos(float64(x-y)),
						0.02*math.Sin(0.3*float64(x)), 0.01*math.Cos(0.7*float64(z)), 0.01)
				}
			}
		}
	}
	return l
}

// haloWalls re-imposes buildHaloWallLattice's halo walls after the x wrap
// (which copies the interior's flags over the x halo's edge rows).
func haloWalls(l *Lattice) {
	l.PeriodicAxis(0)
	for j, n := 0, l.FaceLines(FaceYMin); j < n; j++ {
		for ln, k := l.FaceLine(FaceYMin, 1, j), 0; k < ln.Len; k++ {
			l.Flags[ln.Cell(k)] = Wall
		}
		for ln, k := l.FaceLine(FaceYMax, 1, j), 0; k < ln.Len; k++ {
			x, y, z := l.Coords(ln.Cell(k))
			l.SetMovingWall(x, y, z, 0.05, 0, 0)
		}
	}
	l.SetWall(3, 2, -1)
	l.SetWall(rowChunk+2, 3, l.NZ)
}

// TestUnrolledKernelBitIdentical: the unrolled D3Q19 AA row must reproduce
// the generic sweep (the one collision operator) bit for bit at both
// storage parities, including around static and moving walls — interior
// obstacles, and walls only the halo holds on a lattice wider than the
// sweep's flag window.
func TestUnrolledKernelBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB) *Lattice
		wrap  func(*Lattice)
	}{
		{"obstacles", buildKernelTestLattice, (*Lattice).PeriodicAll},
		{"halo walls", buildHaloWallLattice, haloWalls},
	} {
		fast := tc.build(t)
		slow := tc.build(t)
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
			tc.wrap(fast)
			fast.StepFused()
			tc.wrap(slow)
			slow.StepFused()
			fa, fb := fast.Src(), slow.Src()
			for i := range fa {
				if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
					t.Fatalf("%s, step %d: unrolled row diverged from generic at %d: %v vs %v", tc.name, s, i, fa[i], fb[i])
				}
			}
		}
		if m := fast.GenericRows(); m == 0 || m == fast.NX*fast.NY {
			t.Errorf("%s: %d of %d rows generic; the case must exercise both paths", tc.name, m, fast.NX*fast.NY)
		}
	}
}

// aaRowMixed is the definition of a mixed row, written as a direct scan:
// the row of nz cells starting at rowBase needs the flag-aware generic
// path when one of its cells is not Fluid, or a Wall/MovingWall lies among
// the nine neighbouring z-rows padded by one cell on each end.
func (l *Lattice) aaRowMixed(rowBase, nz int) bool {
	flags := l.Flags
	rowStride := l.AZ
	planeStride := l.AX * l.AZ
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			b := rowBase + dy*planeStride + dx*rowStride - 1
			row := flags[b : b+nz+2]
			for _, fl := range row {
				if fl == Wall || fl == MovingWall {
					return true
				}
			}
		}
	}
	ctr := flags[rowBase : rowBase+nz]
	for _, fl := range ctr {
		if fl != Fluid {
			return true
		}
	}
	return false
}

// TestForRowsMatchesDefinition holds the sweep's row classification to
// its definition (aaRowMixed) on seeded random flag fields — all four
// cell types anywhere, halo corners and the z ends of rows included —
// over every region shape the steppers hand StepRegion: the whole
// lattice, psolve's inner block and boundary strips, single rows, Pool
// bands on uneven splits and random blocks, on lattices narrower and
// wider than the flag window. Every row of the region must be visited
// exactly once, and rowDone must report each row in order only after
// its last visit.
func TestForRowsMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, d := range [][3]int{{1, 1, 1}, {3, 4, 2}, {7, 9, 12}, {rowChunk - 1, 5, 3}, {rowChunk, 3, 2}, {rowChunk + 1, 4, 5}, {2*rowChunk + 3, 3, 1}} {
		l, err := NewLattice(&lattice.D3Q19, d[0], d[1], d[2], 0.8)
		if err != nil {
			t.Fatal(err)
		}
		nx, ny := l.NX, l.NY
		regions := [][4]int{
			{0, nx, 0, ny},
			{1, nx - 1, 1, ny - 1},
			{0, nx, 0, 1}, {0, nx, ny - 1, ny}, {0, 1, 1, ny - 1}, {nx - 1, nx, 1, ny - 1},
		}
		for w := 2; w <= 4; w++ {
			chunk := (ny + w - 1) / w
			for y0 := 0; y0 < ny; y0 += chunk {
				regions = append(regions, [4]int{0, nx, y0, min(y0+chunk, ny)})
			}
		}
		for k := 0; k < 6; k++ {
			x, y := rng.Intn(nx), rng.Intn(ny)
			regions = append(regions, [4]int{x, x + 1, y, y + 1},
				[4]int{x, x + 1 + rng.Intn(nx-x), y, y + 1 + rng.Intn(ny-y)})
		}
		for trial := 0; trial < 40; trial++ {
			// Sparse fields place single cells at the window's edges;
			// dense ones make nearly every row mixed.
			density := []float64{0, 0.001, 0.01, 0.05, 0.3}[trial%5]
			for i := range l.Flags {
				l.Flags[i] = Fluid
				if rng.Float64() < density {
					l.Flags[i] = CellType(rng.Intn(4))
				}
			}
			if trial%5 == 0 {
				l.Flags[rng.Intn(l.N)] = CellType(1 + rng.Intn(3))
			}
			for _, r := range regions {
				if r[0] >= r[1] || r[2] >= r[3] {
					continue
				}
				seen := make(map[[2]int]int)
				done := r[2] - 1 // last row rowDone reported
				l.forRows(r[0], r[1], r[2], r[3], func(x, y int, mixed bool) {
					if y <= done {
						t.Fatalf("%v, region %v: row (%d,%d) visited after rowDone(%d)", d, r, x, y, done)
					}
					seen[[2]int{x, y}]++
					if want := l.aaRowMixed(l.Idx(x, y, 0), l.NZ); mixed != want {
						t.Fatalf("%v, region %v, trial %d: row (%d,%d) mixed=%v, definition says %v", d, r, trial, x, y, mixed, want)
					}
				}, func(y int) {
					if y != done+1 {
						t.Fatalf("%v, region %v: rowDone(%d) after rowDone(%d)", d, r, y, done)
					}
					for x := r[0]; x < r[1]; x++ {
						if seen[[2]int{x, y}] != 1 {
							t.Fatalf("%v, region %v: rowDone(%d) before row (%d,%d) was visited", d, r, y, x, y)
						}
					}
					done = y
				})
				if done != r[3]-1 {
					t.Fatalf("%v, region %v: last rowDone(%d), want %d", d, r, done, r[3]-1)
				}
				if want := (r[1] - r[0]) * (r[3] - r[2]); len(seen) != want {
					t.Fatalf("%v, region %v: visited %d distinct rows, want %d", d, r, len(seen), want)
				}
				for xy, n := range seen {
					if n != 1 || xy[0] < r[0] || xy[0] >= r[1] || xy[1] < r[2] || xy[1] >= r[3] {
						t.Fatalf("%v, region %v: row %v visited %d times", d, r, xy, n)
					}
				}
			}
		}
	}
}

// TestGenericRows: the count is the classification's over the whole
// lattice on the fast path and every row off it.
func TestGenericRows(t *testing.T) {
	l := buildKernelTestLattice(t)
	l.EnableAA()
	want := 0
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			if l.aaRowMixed(l.Idx(x, y, 0), l.NZ) {
				want++
			}
		}
	}
	if got := l.GenericRows(); got != want || want == 0 {
		t.Errorf("GenericRows = %d, definition counts %d", got, want)
	}
	l.Smagorinsky = 0.17
	if got := l.GenericRows(); got != l.NX*l.NY {
		t.Errorf("off the fast path GenericRows = %d, want every row (%d)", got, l.NX*l.NY)
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
