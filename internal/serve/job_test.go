package serve

import "testing"

// TestNormalizeDecomp: a job's decomp is a strict grid of at most
// maxJobRanks ranks or a patch roster of at most as many workers.
// Parsing only: no world of these sizes is started.
func TestNormalizeDecomp(t *testing.T) {
	for _, c := range []struct {
		decomp string
		px, py int // 0: refused
	}{
		{"2x1", 2, 1},
		{"8x8", 8, 8},
		{"64x1", 64, 1},
		{"patch2", 2, 1},
		{"patch64", 64, 1},
		{"2x1x7", 0, 0},
		{"2x1junk", 0, 0},
		{"0x1", 0, 0},
		{"65x1", 0, 0},
		{"9x8", 0, 0},
		{"99999999999x99999999999", 0, 0},
		{"patch65", 0, 0},
		{"patch0", 0, 0},
	} {
		sp := JobSpec{Case: smallCase("grid", 1), Decomp: c.decomp}
		px, py, err := sp.normalize()
		if c.px == 0 {
			if err == nil {
				t.Errorf("decomp %q normalized to %dx%d, want refused", c.decomp, px, py)
			}
			continue
		}
		if err != nil || px != c.px || py != c.py {
			t.Errorf("decomp %q: %dx%d, %v, want %dx%d", c.decomp, px, py, err, c.px, c.py)
		}
	}
}
