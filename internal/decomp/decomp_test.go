package decomp

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestDecompose2DCoverage(t *testing.T) {
	blocks, err := Decompose2D(100, 70, 30, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 12 {
		t.Fatalf("got %d blocks, want 12", len(blocks))
	}
	if err := Cover(blocks, 100, 70, 30); err != nil {
		t.Fatal(err)
	}
	// Full z per block.
	for i, b := range blocks {
		if b.Z0 != 0 || b.NZ != 30 {
			t.Errorf("block %d does not keep full z: %+v", i, b)
		}
	}
}

func TestDecompose2DRemainder(t *testing.T) {
	// 10 cells across 3 parts -> sizes 4,3,3.
	blocks, err := Decompose2D(10, 5, 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{blocks[0].NX, blocks[1].NX, blocks[2].NX}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Errorf("remainder distribution = %v, want [4 3 3]", sizes)
	}
	if err := Cover(blocks, 10, 5, 2); err != nil {
		t.Fatal(err)
	}
}

// TestDecompositionCoverageProperty: any valid (gnx,gny,gnz,px,py) yields
// an exact tiling.
func TestDecompositionCoverageProperty(t *testing.T) {
	f := func(a, b, c, p, q uint8) bool {
		gnx := int(a%50) + 4
		gny := int(b%50) + 4
		gnz := int(c%20) + 1
		px := int(p%4) + 1
		py := int(q%4) + 1
		if gnx < px || gny < py {
			return true
		}
		blocks, err := Decompose2D(gnx, gny, gnz, px, py)
		if err != nil {
			return false
		}
		return Cover(blocks, gnx, gny, gnz) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecompose1D3D(t *testing.T) {
	b1, err := Decompose1D(64, 32, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Cover(b1, 64, 32, 16); err != nil {
		t.Fatal(err)
	}
	b3, err := Decompose3D(64, 32, 16, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Cover(b3, 64, 32, 16); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose2D(2, 2, 2, 4, 1); err == nil {
		t.Error("want error: more parts than cells")
	}
	if _, err := Decompose1D(4, 4, 4, 8); err == nil {
		t.Error("want error: 1D overdecomposition")
	}
	if _, err := Decompose3D(4, 4, 4, 8, 1, 1); err == nil {
		t.Error("want error: 3D overdecomposition")
	}
}

func TestSurfaceCells(t *testing.T) {
	b := Block{NX: 4, NY: 4, NZ: 4}
	// 4³ − 2³ = 56.
	if got := b.SurfaceCells(); got != 56 {
		t.Errorf("SurfaceCells = %d, want 56", got)
	}
	thin := Block{NX: 1, NY: 5, NZ: 5}
	if got := thin.SurfaceCells(); got != 25 {
		t.Errorf("thin SurfaceCells = %d, want 25 (all cells)", got)
	}
}

func TestAnalyze(t *testing.T) {
	blocks, _ := Decompose2D(100, 100, 50, 5, 2)
	s := Analyze(blocks, 8)
	if s.Blocks != 10 || s.MaxNeighbors != 8 {
		t.Errorf("stats = %+v", s)
	}
	if s.Imbalance != 0 {
		t.Errorf("even split imbalance = %v, want 0", s.Imbalance)
	}
	// Uneven split has positive imbalance.
	blocks2, _ := Decompose2D(101, 100, 50, 5, 2)
	if s2 := Analyze(blocks2, 8); s2.Imbalance <= 0 {
		t.Errorf("uneven imbalance = %v, want > 0", s2.Imbalance)
	}
}

// TestDecompositionTradeoffs encodes the paper's §IV-C-1 argument
// quantitatively: for a wide-flat domain, 2-D xy decomposition has less
// total surface than 3-D for the same process count only when z is kept
// whole and thin; and 1-D runs out of parallelism. What we check: 1-D
// cannot even split the x axis into 160000 parts, while 2-D can expose
// 160000-way parallelism, and 2-D's max fan-out (8) is below 3-D's (26).
func TestDecompositionTradeoffs(t *testing.T) {
	// The paper's weak-scaling global mesh at 160000 CGs: 400×400 grid
	// of 500×700×100 blocks.
	const gnx, gny, gnz = 500 * 400, 700 * 400, 100
	if _, err := Decompose1D(1000, gny, gnz, 160000); err == nil {
		t.Error("1-D should fail to expose 160000-way parallelism on a 1000-cell axis")
	}
	blocks, err := Decompose2D(gnx, gny, gnz, 400, 400)
	if err != nil {
		t.Fatalf("2-D decomposition must handle 160000 ranks: %v", err)
	}
	s2 := Analyze(blocks, 8)
	if s2.Blocks != 160000 {
		t.Fatalf("blocks = %d", s2.Blocks)
	}
	if s2.MaxNeighbors >= 26 {
		t.Error("2-D fan-out must stay below 3-D's 26")
	}
}

func TestBlockContains(t *testing.T) {
	b := Block{X0: 10, Y0: 20, Z0: 0, NX: 5, NY: 5, NZ: 5}
	if !b.Contains(10, 20, 0) || !b.Contains(14, 24, 4) {
		t.Error("corner cells must be inside")
	}
	if b.Contains(15, 20, 0) || b.Contains(10, 19, 0) {
		t.Error("outside cells must be outside")
	}
}

func TestCoverDetectsOverlap(t *testing.T) {
	blocks := []Block{
		{X0: 0, NX: 5, NY: 4, NZ: 4},
		{X0: 4, NX: 5, NY: 4, NZ: 4}, // overlaps x=4
	}
	// Total is 160 vs domain 9*4*4=144 -> count mismatch caught first.
	if err := Cover(blocks, 9, 4, 4); err == nil {
		t.Error("want overlap/count error")
	}
	// Craft an overlap with matching total: two 1-wide blocks on the
	// same spot plus a gap.
	blocks = []Block{
		{X0: 0, NX: 1, NY: 1, NZ: 1},
		{X0: 0, NX: 1, NY: 1, NZ: 1},
	}
	if err := Cover(blocks, 2, 1, 1); err == nil {
		t.Error("want overlap error")
	}
}

// TestParseGrid: a grid is exactly its parts, each an integer ≥ 1;
// trailing text, a missing or extra part and a zero are refused.
func TestParseGrid(t *testing.T) {
	for _, c := range []struct {
		s     string
		parts int
		want  []int
	}{
		{"2x1", 2, []int{2, 1}},
		{"8X8", 2, []int{8, 8}},
		{" 4x2 ", 2, []int{4, 2}},
		{"2x2x1", 3, []int{2, 2, 1}},
		{"2x1x7", 2, nil},
		{"2x1junk", 2, nil},
		{"0x1", 2, nil},
		{"-1x2", 2, nil},
		{"2x", 2, nil},
		{"x2", 2, nil},
		{"2", 2, nil},
		{"", 2, nil},
		{"2x2", 3, nil},
		{"2x2x1x1", 3, nil},
		{"2 x2", 2, nil},
	} {
		got, err := ParseGrid(c.s, c.parts)
		if c.want == nil {
			if err == nil {
				t.Errorf("ParseGrid(%q, %d) = %v, want an error", c.s, c.parts, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("ParseGrid(%q, %d) = %v, %v, want %v", c.s, c.parts, got, err, c.want)
		}
	}
}
