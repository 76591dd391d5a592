package geometry

import "sunwaylb/internal/core"

// VoxelGrid maps lattice cell coordinates to world space: cell (x, y, z)
// samples the world point Origin + H·(x+½, y+½, z+½).
type VoxelGrid struct {
	NX, NY, NZ int
	// Origin is the world position of the lattice corner (0,0,0).
	Origin Vec3
	// H is the cell size (lattice spacing) in world units.
	H float64
}

// Center returns the world-space center of cell (x, y, z).
func (g VoxelGrid) Center(x, y, z int) Vec3 {
	return Vec3{
		g.Origin.X + g.H*(float64(x)+0.5),
		g.Origin.Y + g.H*(float64(y)+0.5),
		g.Origin.Z + g.H*(float64(z)+0.5),
	}
}

// Voxelize samples the shape at every cell center and returns a solid mask
// in the usual z-fastest ordering (idx = (y·NX+x)·NZ+z).
func Voxelize(s Shape, g VoxelGrid) []bool {
	mask := make([]bool, g.NX*g.NY*g.NZ)
	b := s.Bounds()
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			// Column-level bounding-box rejection.
			c := g.Center(x, y, 0)
			if c.X < b.Min.X-g.H || c.X > b.Max.X+g.H ||
				c.Y < b.Min.Y-g.H || c.Y > b.Max.Y+g.H {
				continue
			}
			for z := 0; z < g.NZ; z++ {
				if s.Contains(g.Center(x, y, z)) {
					mask[(y*g.NX+x)*g.NZ+z] = true
				}
			}
		}
	}
	return mask
}

// Walls is the wall predicate of a mask laid out over the grid's cells as
// Voxelize lays it out, for core.BuildLattice.
func (g VoxelGrid) Walls(mask []bool) core.WallsFunc {
	return func(x, y, z int) bool { return mask[(y*g.NX+x)*g.NZ+z] }
}

// SolidFraction returns the fraction of true cells in a mask.
func SolidFraction(mask []bool) float64 {
	if len(mask) == 0 {
		return 0
	}
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	return float64(n) / float64(len(mask))
}
