// Package patch implements the patch-based domain decomposition with
// measured-throughput load balancing of Feichtinger et al. ("A Flexible
// Patch-Based Lattice Boltzmann Parallelization for Heterogeneous
// GPU–CPU Clusters"): the global lattice is tiled into uniform patches —
// the unit of ownership — and an owner map assigns each patch to a
// worker. Every worker steps its patches with the in-place AA core
// kernel; a worker may model a heterogeneous device (internal/swlb,
// internal/gpu) that prices those steps. A balancer samples per-patch
// step cost (wall time, or the device's price) through internal/trace
// counters and migrates patches between workers when measurements (or
// the straggler model) skew step times beyond a threshold, so a slow
// backend no longer drags every BSP step.
//
// Unlike the static 1-D/2-D/3-D splits of internal/decomp, where a rank
// owns a fixed slab forever, patches outnumber workers and move: the
// spare-rank hot-swap of internal/resil generalises to "migrate this
// patch to a healthy owner" (see supervise.go), and elastic resize
// becomes an owner-map edit rather than a world rebuild.
package patch

import (
	"fmt"

	"sunwaylb/internal/decomp"
)

// Patch is one tile of the global lattice: a patch ID plus the cuboid it
// covers. IDs are dense and ordered z-major/y-mid/x-minor, matching
// decomp.Decompose3D's block layout, so id = (cz·TY+cy)·TX+cx.
type Patch struct {
	ID int
	decomp.Block
}

// Tiling is the uniform patch grid over a global lattice, together with
// its face-adjacency structure. It is immutable after NewTiling: the
// owner map (see world.go) changes at runtime, the tiling never does.
type Tiling struct {
	GNX, GNY, GNZ int // global lattice extents
	TX, TY, TZ    int // patches per axis
	Patches       []Patch
}

// NewTiling tiles a gnx×gny×gnz lattice into tx×ty×tz uniform patches
// using the fair-extent Split of internal/decomp (no two patch extents
// along an axis differ by more than one cell). Along any axis that is
// actually cut (parts > 1) every extent must be at least 2 cells, since
// the halo Pack/UnpackFace layers of a thinner patch would alias.
func NewTiling(gnx, gny, gnz, tx, ty, tz int) (*Tiling, error) {
	blocks, err := decomp.Decompose3D(gnx, gny, gnz, tx, ty, tz)
	if err != nil {
		return nil, err
	}
	t := &Tiling{GNX: gnx, GNY: gny, GNZ: gnz, TX: tx, TY: ty, TZ: tz}
	for id, b := range blocks {
		if (tx > 1 && b.NX < 2) || (ty > 1 && b.NY < 2) || (tz > 1 && b.NZ < 2) {
			return nil, fmt.Errorf("patch: tile %dx%dx%d too thin for %dx%dx%d tiling of %dx%dx%d",
				b.NX, b.NY, b.NZ, tx, ty, tz, gnx, gny, gnz)
		}
		t.Patches = append(t.Patches, Patch{ID: id, Block: b})
	}
	return t, nil
}

// FitTiles caps a requested patch count t along an axis of n cells so
// NewTiling accepts it: at most n/2 patches, so every patch is at least 2
// cells thick, and at least 1. Callers that size a tiling to the case
// (conform's backends, lbmserve's patch jobs) fit it; a tiling the user
// names goes to NewTiling as given.
func FitTiles(t, n int) int { return max(min(t, n/2), 1) }

// P returns the number of patches.
func (t *Tiling) P() int { return len(t.Patches) }

// parts returns the number of patches along axis (0=x, 1=y, 2=z).
func (t *Tiling) parts(axis int) int { return [3]int{t.TX, t.TY, t.TZ}[axis] }

// At returns the patch ID at tile coordinate (cx, cy, cz).
func (t *Tiling) At(cx, cy, cz int) int { return (cz*t.TY+cy)*t.TX + cx }

// Coords returns the tile coordinate of patch id.
func (t *Tiling) Coords(id int) (cx, cy, cz int) {
	cx = id % t.TX
	cy = (id / t.TX) % t.TY
	cz = id / (t.TX * t.TY)
	return
}

// Neighbor returns the patch ID adjacent to id across axis in direction
// dir (+1 or −1), wrapping across the global boundary when periodic, or
// −1 when there is no neighbour (non-periodic edge).
func (t *Tiling) Neighbor(id, axis, dir int, periodic bool) int {
	c := [3]int{}
	c[0], c[1], c[2] = t.Coords(id)
	parts := t.parts(axis)
	n := c[axis] + dir
	if n < 0 || n >= parts {
		if !periodic {
			return -1
		}
		n = (n + parts) % parts
	}
	c[axis] = n
	return t.At(c[0], c[1], c[2])
}
