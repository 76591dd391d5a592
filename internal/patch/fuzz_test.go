package patch_test

import (
	"testing"

	"sunwaylb/internal/decomp"
	"sunwaylb/internal/patch"
)

// FuzzTilePatches: every grid/tiling input NewTiling accepts must yield
// a full cover with no overlap and a symmetric adjacency graph, under
// both periodic and bounded topologies.
func FuzzTilePatches(f *testing.F) {
	f.Add(12, 10, 8, 3, 2, 2)
	f.Add(13, 11, 9, 4, 3, 1)
	f.Add(8, 8, 8, 1, 1, 1)
	f.Add(31, 7, 5, 7, 3, 2)
	f.Add(2, 2, 2, 1, 2, 1)
	f.Fuzz(func(t *testing.T, gnx, gny, gnz, tx, ty, tz int) {
		clamp := func(v, lo, hi int) int {
			if v < lo {
				return lo
			}
			if v > hi {
				return hi
			}
			return v
		}
		gnx, gny, gnz = clamp(gnx, 1, 40), clamp(gny, 1, 40), clamp(gnz, 1, 40)
		tx, ty, tz = clamp(tx, 1, 8), clamp(ty, 1, 8), clamp(tz, 1, 8)
		til, err := patch.NewTiling(gnx, gny, gnz, tx, ty, tz)
		if err != nil {
			t.Skip() // rejected input: nothing to assert
		}
		if til.P() != tx*ty*tz {
			t.Fatalf("%d patches, want %d", til.P(), tx*ty*tz)
		}
		blocks := make([]decomp.Block, 0, til.P())
		for _, p := range til.Patches {
			blocks = append(blocks, p.Block)
		}
		// Full cover, in bounds, pairwise disjoint.
		if err := decomp.Cover(blocks, gnx, gny, gnz); err != nil {
			t.Fatalf("tiling %dx%dx%d/%dx%dx%d: %v", gnx, gny, gnz, tx, ty, tz, err)
		}
		// Fair extents: no two patches differ by more than one cell per axis.
		for _, p := range til.Patches {
			for _, q := range til.Patches {
				dx := p.NX - q.NX
				dy := p.NY - q.NY
				dz := p.NZ - q.NZ
				if dx < -1 || dx > 1 || dy < -1 || dy > 1 || dz < -1 || dz > 1 {
					t.Fatalf("patches %d and %d differ by >1 cell: %+v vs %+v", p.ID, q.ID, p.Block, q.Block)
				}
			}
		}
		// Symmetric adjacency: every neighbour relation inverts exactly.
		for _, per := range []bool{false, true} {
			for _, p := range til.Patches {
				for axis := 0; axis < 3; axis++ {
					for _, dir := range []int{-1, +1} {
						nb := til.Neighbor(p.ID, axis, dir, per)
						if nb < 0 {
							continue
						}
						if back := til.Neighbor(nb, axis, -dir, per); back != p.ID {
							t.Fatalf("asymmetric adjacency: %d --%d/%+d--> %d --back--> %d",
								p.ID, axis, dir, nb, back)
						}
					}
				}
			}
		}
	})
}
