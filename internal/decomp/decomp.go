// Package decomp implements the multi-level domain decomposition of the
// paper (§IV-C-1): the global lattice is divided into equal cuboid
// subdomains — 2-D in x,y with the full z axis per subdomain — plus the
// 1-D and 3-D alternatives the paper argues against, so the trade-off
// (exposed parallelism vs. communication surface) can be measured.
package decomp

import (
	"fmt"
	"strconv"
	"strings"
)

// Block is one subdomain: a cuboid [X0,X0+NX)×[Y0,Y0+NY)×[Z0,Z0+NZ) of the
// global lattice.
type Block struct {
	X0, Y0, Z0 int
	NX, NY, NZ int
}

// Cells returns the number of lattice cells in the block.
func (b Block) Cells() int { return b.NX * b.NY * b.NZ }

// Contains reports whether the global cell (x, y, z) is in the block.
func (b Block) Contains(x, y, z int) bool {
	return x >= b.X0 && x < b.X0+b.NX &&
		y >= b.Y0 && y < b.Y0+b.NY &&
		z >= b.Z0 && z < b.Z0+b.NZ
}

// SurfaceCells returns the number of cells on the six faces of the block —
// proportional to the halo-exchange volume.
func (b Block) SurfaceCells() int {
	if b.NX <= 0 || b.NY <= 0 || b.NZ <= 0 {
		return 0
	}
	total := b.Cells()
	ix, iy, iz := b.NX-2, b.NY-2, b.NZ-2
	if ix <= 0 || iy <= 0 || iz <= 0 {
		return total
	}
	return total - ix*iy*iz
}

// Split divides n cells into parts contiguous pieces and returns the
// start offset and size of piece i (0 ≤ i < parts).
//
// Fairness contract (asserted by TestSplitFairness and FuzzDecompose,
// relied on by every Decompose* variant and the patch tiler in
// internal/patch):
//
//   - pieces are contiguous and in order: piece i ends where piece i+1
//     starts, piece 0 starts at 0 and piece parts−1 ends at n;
//   - no two pieces differ in size by more than one cell — every piece
//     is ⌊n/parts⌋ or ⌈n/parts⌉ cells;
//   - the n mod parts remainder cells go to the leading pieces, so the
//     mapping from (n, parts, i) to extents is deterministic.
func Split(n, parts, i int) (start, size int) {
	base := n / parts
	rem := n % parts
	if i < rem {
		return i * (base + 1), base + 1
	}
	return rem*(base+1) + (i-rem)*base, base
}

// Decompose2D produces the paper's decomposition: a px×py grid of
// subdomains in x,y, each keeping the full z extent. Blocks are indexed
// rank-major (rank = y·px + x, matching mpi.Cart2D).
func Decompose2D(gnx, gny, gnz, px, py int) ([]Block, error) {
	if gnx < px || gny < py || px < 1 || py < 1 || gnz < 1 {
		return nil, fmt.Errorf("decomp: cannot split %d×%d×%d into %d×%d", gnx, gny, gnz, px, py)
	}
	blocks := make([]Block, 0, px*py)
	for y := 0; y < py; y++ {
		for x := 0; x < px; x++ {
			x0, nx := Split(gnx, px, x)
			y0, ny := Split(gny, py, y)
			blocks = append(blocks, Block{X0: x0, Y0: y0, Z0: 0, NX: nx, NY: ny, NZ: gnz})
		}
	}
	return blocks, nil
}

// Decompose1D slices the domain along x only (the scheme the paper rejects
// for exposing too little parallelism: "the x or y dimension usually has
// less than 1000 elements").
func Decompose1D(gnx, gny, gnz, p int) ([]Block, error) {
	if gnx < p || p < 1 {
		return nil, fmt.Errorf("decomp: cannot split nx=%d into %d slabs", gnx, p)
	}
	blocks := make([]Block, 0, p)
	for i := 0; i < p; i++ {
		x0, nx := Split(gnx, p, i)
		blocks = append(blocks, Block{X0: x0, NX: nx, NY: gny, NZ: gnz})
	}
	return blocks, nil
}

// Decompose3D splits along all three axes (the scheme the paper rejects
// for its communication complexity: up to 26 neighbours).
func Decompose3D(gnx, gny, gnz, px, py, pz int) ([]Block, error) {
	if gnx < px || gny < py || gnz < pz || px < 1 || py < 1 || pz < 1 {
		return nil, fmt.Errorf("decomp: cannot split %d×%d×%d into %d×%d×%d",
			gnx, gny, gnz, px, py, pz)
	}
	blocks := make([]Block, 0, px*py*pz)
	for z := 0; z < pz; z++ {
		for y := 0; y < py; y++ {
			for x := 0; x < px; x++ {
				x0, nx := Split(gnx, px, x)
				y0, ny := Split(gny, py, y)
				z0, nz := Split(gnz, pz, z)
				blocks = append(blocks, Block{X0: x0, Y0: y0, Z0: z0, NX: nx, NY: ny, NZ: nz})
			}
		}
	}
	return blocks, nil
}

// Stats summarises the quality of a decomposition.
type Stats struct {
	// Blocks is the number of subdomains.
	Blocks int
	// MinCells, MaxCells bound the per-block cell counts.
	MinCells, MaxCells int
	// Imbalance is MaxCells/MeanCells − 1 (0 = perfect).
	Imbalance float64
	// TotalSurface sums the per-block surface cells — the aggregate
	// halo-communication volume of one time step.
	TotalSurface int
	// MaxNeighbors is the worst-case neighbour count (communication
	// fan-out) implied by the block arrangement.
	MaxNeighbors int
}

// Analyze computes decomposition statistics. maxNeighbors is supplied by
// the caller (8 for 2-D xy, 2 for 1-D, 26 for 3-D) since the block list
// alone does not carry the topology.
func Analyze(blocks []Block, maxNeighbors int) Stats {
	if len(blocks) == 0 {
		return Stats{}
	}
	s := Stats{Blocks: len(blocks), MinCells: blocks[0].Cells(), MaxNeighbors: maxNeighbors}
	total := 0
	for _, b := range blocks {
		c := b.Cells()
		total += c
		if c < s.MinCells {
			s.MinCells = c
		}
		if c > s.MaxCells {
			s.MaxCells = c
		}
		s.TotalSurface += b.SurfaceCells()
	}
	mean := float64(total) / float64(len(blocks))
	s.Imbalance = float64(s.MaxCells)/mean - 1
	return s
}

// Cover verifies that the blocks exactly tile the global domain: every
// global cell belongs to exactly one block. It returns an error describing
// the first violation found.
func Cover(blocks []Block, gnx, gny, gnz int) error {
	total := 0
	for _, b := range blocks {
		if b.X0 < 0 || b.Y0 < 0 || b.Z0 < 0 ||
			b.X0+b.NX > gnx || b.Y0+b.NY > gny || b.Z0+b.NZ > gnz {
			return fmt.Errorf("decomp: block %+v outside %d×%d×%d", b, gnx, gny, gnz)
		}
		total += b.Cells()
	}
	if want := gnx * gny * gnz; total != want {
		return fmt.Errorf("decomp: blocks cover %d cells, domain has %d", total, want)
	}
	// With the total matching and all blocks in bounds, overlap would
	// require a matching hole; check pairwise disjointness to be exact.
	for i := range blocks {
		for j := i + 1; j < len(blocks); j++ {
			a, b := blocks[i], blocks[j]
			if a.X0 < b.X0+b.NX && b.X0 < a.X0+a.NX &&
				a.Y0 < b.Y0+b.NY && b.Y0 < a.Y0+a.NY &&
				a.Z0 < b.Z0+b.NZ && b.Z0 < a.Z0+a.NZ {
				return fmt.Errorf("decomp: blocks %d and %d overlap", i, j)
			}
		}
	}
	return nil
}

// ParseGrid parses a process or patch grid such as "2x2" or "2x2x1":
// exactly parts integers ≥ 1 joined by "x" (either case), with nothing
// before, between or after them but surrounding space.
func ParseGrid(s string, parts int) ([]int, error) {
	fields := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	if len(fields) != parts {
		return nil, fmt.Errorf("decomp: grid %q has %d parts, want %d", s, len(fields), parts)
	}
	out := make([]int, parts)
	for i, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("decomp: grid %q: %q is not an integer ≥ 1", s, f)
		}
		out[i] = n
	}
	return out, nil
}
