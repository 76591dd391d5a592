package decomp

import "testing"

// fuzzClamp folds an arbitrary fuzzed int into a range the quadratic
// Cover check can afford, while preserving zero and negative values so
// the error paths stay exercised.
func fuzzClamp(v, m int) int {
	if v > m || v < -m {
		return v % m
	}
	return v
}

// checkFair asserts the defining fairness property of split: every block
// extent along an axis of n cells over p parts is floor(n/p) or
// ceil(n/p).
func checkFair(t *testing.T, what string, size, n, p int) {
	t.Helper()
	lo := n / p
	hi := lo
	if n%p != 0 {
		hi++
	}
	if size < lo || size > hi {
		t.Fatalf("%s: block extent %d outside fair range [%d,%d] for %d/%d", what, size, lo, hi, n, p)
	}
}

// FuzzDecompose: for arbitrary domain and grid shapes, every factorizer
// either rejects the input (only when it is genuinely unsplittable) or
// returns blocks that exactly tile the domain with fair extents — the
// contract psolve's rank layout and the patch world's tiling build on.
func FuzzDecompose(f *testing.F) {
	f.Add(16, 16, 16, 2, 2, 2)
	f.Add(8, 9, 10, 3, 2, 1)
	f.Add(1, 1, 1, 1, 1, 1)
	f.Add(7, 5, 3, 7, 5, 3)
	f.Add(100, 37, 2, 8, 1, 2)
	f.Add(0, 4, 4, 1, 1, 1)
	f.Add(4, 4, 4, 0, -3, 2)

	f.Fuzz(func(t *testing.T, gnx, gny, gnz, px, py, pz int) {
		gnx, gny, gnz = fuzzClamp(gnx, 4096), fuzzClamp(gny, 4096), fuzzClamp(gnz, 4096)
		px, py, pz = fuzzClamp(px, 8), fuzzClamp(py, 8), fuzzClamp(pz, 8)

		if blocks, err := Decompose1D(gnx, gny, gnz, px); err == nil {
			if gnx < px || px < 1 {
				t.Fatalf("1D accepted unsplittable nx=%d p=%d", gnx, px)
			}
			if len(blocks) != px {
				t.Fatalf("1D returned %d blocks, want %d", len(blocks), px)
			}
			// 1-D blocks keep full y,z; Cover only holds on valid domains.
			if gny >= 1 && gnz >= 1 {
				if cerr := Cover(blocks, gnx, gny, gnz); cerr != nil {
					t.Fatalf("1D cover: %v", cerr)
				}
			}
			for _, b := range blocks {
				checkFair(t, "1D x", b.NX, gnx, px)
			}
		} else if gnx >= px && px >= 1 {
			t.Fatalf("1D rejected splittable nx=%d p=%d: %v", gnx, px, err)
		}

		if blocks, err := Decompose2D(gnx, gny, gnz, px, py); err == nil {
			if gnx < px || gny < py || px < 1 || py < 1 || gnz < 1 {
				t.Fatalf("2D accepted unsplittable %dx%dx%d / %dx%d", gnx, gny, gnz, px, py)
			}
			if len(blocks) != px*py {
				t.Fatalf("2D returned %d blocks, want %d", len(blocks), px*py)
			}
			if cerr := Cover(blocks, gnx, gny, gnz); cerr != nil {
				t.Fatalf("2D cover: %v", cerr)
			}
			st := Analyze(blocks, 8)
			if st.MinCells < 1 {
				t.Fatal("2D produced an empty block")
			}
			for _, b := range blocks {
				checkFair(t, "2D x", b.NX, gnx, px)
				checkFair(t, "2D y", b.NY, gny, py)
				if b.NZ != gnz || b.Z0 != 0 {
					t.Fatalf("2D block does not keep the full z extent: %+v", b)
				}
			}
		} else if gnx >= px && gny >= py && px >= 1 && py >= 1 && gnz >= 1 {
			t.Fatalf("2D rejected splittable input: %v", err)
		}

		if blocks, err := Decompose3D(gnx, gny, gnz, px, py, pz); err == nil {
			if gnx < px || gny < py || gnz < pz || px < 1 || py < 1 || pz < 1 {
				t.Fatalf("3D accepted unsplittable %dx%dx%d / %dx%dx%d", gnx, gny, gnz, px, py, pz)
			}
			if len(blocks) != px*py*pz {
				t.Fatalf("3D returned %d blocks, want %d", len(blocks), px*py*pz)
			}
			if cerr := Cover(blocks, gnx, gny, gnz); cerr != nil {
				t.Fatalf("3D cover: %v", cerr)
			}
			for _, b := range blocks {
				checkFair(t, "3D x", b.NX, gnx, px)
				checkFair(t, "3D y", b.NY, gny, py)
				checkFair(t, "3D z", b.NZ, gnz, pz)
			}
		} else if gnx >= px && gny >= py && gnz >= pz && px >= 1 && py >= 1 && pz >= 1 {
			t.Fatalf("3D rejected splittable input: %v", err)
		}
	})
}
