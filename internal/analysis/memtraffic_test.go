package analysis

// TestTrafficEstimatesRepo pins the memtraffic model's per-cell byte
// estimate for every //lbm:hot kernel in the lattice packages. The
// numbers are the model's documented output — if a kernel change moves
// one, the budget discussion in DESIGN.md should move with it. Bytes 0
// with Budget -1 means no unbounded loop survives the assume pins
// (nothing to price per cell).

import (
	"path/filepath"
	"testing"
)

func TestTrafficEstimatesRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks repository packages; skipped in -short")
	}
	want := map[string]map[string]TrafficEstimate{
		"../core": {
			// The one descriptor-generic sweep, budgeted at the tighter AA
			// figure: 19 reads + 19 writes + ~20 flag bytes ≈ 324 B/cell
			// (on AA storage both halves hit one array, which is what keeps
			// the step under the paper's 380 B/cell double-buffer figure).
			// Its natural-layout gather is pull, priced per direction (a
			// flag byte and a population, plus an offset-table entry and a
			// scratch slot the model cannot tell from memory; a direction
			// moved across a wrap reads its shift on those rows alone);
			// StreamOnly carries only its pushes. Relax is priced per
			// direction too: stack scratch and the descriptor tables, no
			// lattice traffic.
			"stepGeneric": {Bytes: 324, Budget: 360},
			"pull":        {Bytes: 25, Budget: 25},
			"Relax":       {Bytes: 56, Budget: 56},
			"CollideOnly": {Bytes: 305, Budget: 380},
			"StreamOnly":  {Bytes: 153, Budget: 380},
			// The unrolled D3Q19 AA sweep delegates its per-cell work to
			// aaRowD3Q19 (rows are hoisted, so the sweep itself prices at
			// 0) and its row classification to forRows, which reads one
			// flag byte per allocated cell (rowSummary) and decides each
			// row from nine bytes of its window — its "cell" is a row.
			"stepAAD3Q19":      {Bytes: 0, Budget: 360},
			"forRows":          {Bytes: 9, Budget: 9},
			"rowSummary":       {Bytes: 1, Budget: 1},
			"aaRowD3Q19Scalar": {Bytes: 304, Budget: 360},
			// A sweep that reads across a wrap copies one slot per end
			// cell and direction of a row, in lines the row touches: the
			// population, read and written, plus the direction's base
			// (and, in keepIn, the shift of a row moved across x or y);
			// wrapEnds computes its bases.
			"wrapEnds": {Bytes: 16, Budget: 16},
			"keepIn":   {Bytes: 32, Budget: 32},
			"endsOut":  {Bytes: 24, Budget: 24},
			// Halo layer: population-outer, row-inner sweeps over lines of
			// cells, priced where the populations move, the same at either
			// storage phase: gatherPop/scatterPop/copyPop move one
			// population of the line per call, a read and a write per cell.
			// A periodic wrap calls them 19 times per line (608 of a wrap
			// pair's 616 per cell) and carries the flag bytes itself. The
			// face paths call them once per crossing population, 5 of
			// D3Q19's 19 (80 of the 96 per cell); the model prices their
			// walk over the crossing list, one int per population of a
			// line, above the flag bytes.
			"gatherPop":     {Bytes: 16, Budget: 16},
			"scatterPop":    {Bytes: 16, Budget: 16},
			"copyPop":       {Bytes: 16, Budget: 16},
			"PeriodicRange": {Bytes: 2, Budget: 616},
			"PackFace":      {Bytes: 8, Budget: 96},
			"UnpackFace":    {Bytes: 8, Budget: 96},
			"CopyFace":      {Bytes: 8, Budget: 96},
			// Macro extraction, row-wise and population-outer: the model
			// prices one pass of a population over a cell at the dearest
			// velocity (a population read, the density and three momentum
			// accumulators updated in the row's L1-resident runs).
			"MacroInto": {Bytes: 72, Budget: 72},
			// Its D3Q19 row sums each cell in registers: 19 population
			// loads, the flag byte and the four outputs written once.
			"macroRowD3Q19": {Bytes: 185, Budget: 185},
		},
		// The rank and patch data paths: the one exchange driver, the
		// block step both worlds run, walks its face plan only (no
		// per-cell loop: Budget -1); a link's own loops move the flag
		// bytes of a first message, its payload is priced in
		// PackFace/UnpackFace and the checksum's write. The patch world
		// has no exchange loop of its own.
		"../psolve": {
			"postAxis":    {Bytes: 0, Budget: -1},
			"post":        {Bytes: 0, Budget: -1},
			"collectAxis": {Bytes: 0, Budget: -1},
			"Post":        {Bytes: 2, Budget: 2},
			"Collect":     {Bytes: 2, Budget: 2},
		},
		"../patch": {},
		// Computed boundary conditions stage each chunk of a line through
		// core's Gather/ScatterLine; their own loops touch stack scratch.
		// The D3Q19 outlet row makes two passes over a staged chunk, each
		// moving 19 populations one way and 3 velocity components the
		// other; the model prices the dearer pass.
		"../boundary": {
			"ApplyLines":     {Bytes: 0, Budget: 320},
			"outletRowD3Q19": {Bytes: 176, Budget: 352},
		},
		"../swlb": {
			"Step": {Bytes: 4, Budget: 8},
		},
		// Snapshot payloads move row-wise through core's GatherLine /
		// ScatterLine (16 B per population of a cell, priced there): the
		// one gather and the one scatter loop carry the flag byte in and
		// out. The hash reads a word, the fused XOR-and-hash reads two
		// operands and writes one. The one snapshot wave of both worlds
		// walks owned blocks and group members only: per owned block one
		// (holder, block, lattice, record, copy list) entry and an
		// owner-map word, per group member owner-map words and the owned
		// entry the parity pass looks up.
		"../resil": {
			"captureBox": {Bytes: 80, Budget: 320},
			"installBox": {Bytes: 2, Budget: 320},
			"Wave":       {Bytes: 104, Budget: 104},
			"buddies":    {Bytes: 104, Budget: 104},
			"parity":     {Bytes: 16, Budget: 16},
			"write":      {Bytes: 8, Budget: 8},
			"xor":        {Bytes: 24, Budget: 24},
			"writeBytes": {Bytes: 1, Budget: 1},
		},
	}
	l := newTestLoader(t)
	for dir, kernels := range want {
		dir, kernels := dir, kernels
		t.Run(filepath.Base(dir), func(t *testing.T) {
			abs, err := filepath.Abs(dir)
			if err != nil {
				t.Fatalf("abs: %v", err)
			}
			pkg, err := l.LoadDir(abs)
			if err != nil {
				t.Fatalf("load %s: %v", dir, err)
			}
			got := make(map[string]TrafficEstimate)
			for _, e := range trafficEstimates(pkg) {
				// Same-named methods (the conditions' ApplyLines) share a row:
				// the dearest one is pinned.
				if prev, ok := got[e.Func]; !ok || e.Bytes > prev.Bytes {
					got[e.Func] = e
				}
			}
			for fn, w := range kernels {
				g, ok := got[fn]
				if !ok {
					t.Errorf("%s: hot kernel %s missing from estimates", dir, fn)
					continue
				}
				if g.Bytes != w.Bytes || g.Budget != w.Budget {
					t.Errorf("%s.%s = {Bytes:%d Budget:%d}, want {Bytes:%d Budget:%d}",
						filepath.Base(dir), fn, g.Bytes, g.Budget, w.Bytes, w.Budget)
				}
			}
			for fn, g := range got {
				if _, ok := kernels[fn]; !ok {
					t.Errorf("%s: unexpected hot kernel %s (estimate %d B, budget %d) — add it to the table", dir, fn, g.Bytes, g.Budget)
				}
				if g.Budget >= 0 && g.Bytes > g.Budget {
					t.Errorf("%s.%s: estimate %d exceeds budget %d", filepath.Base(dir), fn, g.Bytes, g.Budget)
				}
			}
		})
	}
}
