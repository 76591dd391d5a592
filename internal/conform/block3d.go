package conform

import (
	"fmt"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
)

// blockGrid is a stitched serial driver over a 3-D block decomposition:
// every block owns its own core.Lattice and halos are copied between
// neighbouring blocks with the same Pack/UnpackFace layers the distributed
// solver ships over mpi. It exists to close the matrix gap the paper's
// 2-D production decomposition leaves open (§IV-C-1 argues 3-D splitting
// costs too much communication — but it must still compute the same
// flow), without teaching the mpi runtime a third cartesian axis.
//
// Per-step ordering mirrors psolve exactly so halo corners resolve
// identically: z halos first (neighbour exchange, or the local periodic
// wrap when pz=1), then the global-face conditions of edge blocks, then
// the x exchange, then the y exchange. Pack/UnpackFace cover the full
// allocated tangential extent, so running the axes in sequence propagates
// edge and corner values transitively exactly as the 2-D solver does.
type blockGrid struct {
	c          *Case
	px, py, pz int
	blocks     []decomp.Block
	lats       []*core.Lattice
	conds      [][]boundary.Condition

	// Scratch face buffers, sized for the largest face of each axis.
	buf   []float64
	flags []core.CellType
}

// RunBlocks3D executes the case over a px×py×pz block decomposition,
// stepping each block with the serial fused kernel and stitching the
// per-block macroscopic fields into the global one.
func (c *Case) RunBlocks3D(px, py, pz int) (*core.MacroField, error) {
	g, err := newBlockGrid(c, px, py, pz)
	if err != nil {
		return nil, err
	}
	for s := 0; s < c.Steps; s++ {
		g.step()
	}
	return g.gather(), nil
}

func newBlockGrid(c *Case, px, py, pz int) (*blockGrid, error) {
	blocks, err := decomp.Decompose3D(c.NX, c.NY, c.NZ, px, py, pz)
	if err != nil {
		return nil, err
	}
	g := &blockGrid{c: c, px: px, py: py, pz: pz, blocks: blocks}
	walls := c.Walls()
	init := c.Init()
	maxFace := 0
	for _, b := range blocks {
		if b.NX < 2 || b.NY < 2 || b.NZ < 2 {
			return nil, fmt.Errorf("conform: block %dx%dx%d too thin for %dx%dx%d grid",
				b.NX, b.NY, b.NZ, px, py, pz)
		}
		l, err := core.BuildLattice(&lattice.D3Q19, core.Box(b), c.Tau, walls, init)
		if err != nil {
			return nil, err
		}
		l.Smagorinsky = c.Smagorinsky
		l.Force = c.Force
		g.lats = append(g.lats, l)
		g.conds = append(g.conds, g.blockConds(b))
		for _, f := range []core.Face{core.FaceXMin, core.FaceYMin, core.FaceZMin} {
			if n := l.FaceCells(f); n > maxFace {
				maxFace = n
			}
		}
	}
	g.buf = make([]float64, maxFace*lattice.D3Q19.Q)
	g.flags = make([]core.CellType, maxFace)
	return g, nil
}

// blockConds selects the global-face conditions this block applies, in
// the same fixed face order psolve uses.
func (g *blockGrid) blockConds(b decomp.Block) []boundary.Condition {
	c := g.c
	fb := c.faceBC()
	if fb == nil {
		return nil
	}
	touches := map[core.Face]bool{
		core.FaceXMin: b.X0 == 0,
		core.FaceXMax: b.X0+b.NX == c.NX,
		core.FaceYMin: b.Y0 == 0,
		core.FaceYMax: b.Y0+b.NY == c.NY,
		core.FaceZMin: b.Z0 == 0,
		core.FaceZMax: b.Z0+b.NZ == c.NZ,
	}
	var out []boundary.Condition
	for _, f := range []core.Face{core.FaceXMin, core.FaceXMax, core.FaceYMin,
		core.FaceYMax, core.FaceZMin, core.FaceZMax} {
		if touches[f] && fb[f] != nil {
			out = append(out, fb[f])
		}
	}
	return out
}

// at returns the block index of grid coordinate (bx, by, bz), matching
// decomp.Decompose3D's layout.
func (g *blockGrid) at(bx, by, bz int) int { return (bz*g.py+by)*g.px + bx }

// transfer copies the interior boundary layer at face of block src into
// the opposite halo layer of block dst. Pack reads layer 0 and Unpack
// writes layer 1, so in-place sequential transfers within one axis phase
// are order-independent (reads and writes never alias), reproducing the
// simultaneous semantics of the mpi exchange.
func (g *blockGrid) transfer(src, dst int, face core.Face) {
	ls, ld := g.lats[src], g.lats[dst]
	n := ls.FaceCells(face)
	q := ls.Desc.Q
	ls.PackFace(face, g.buf[:n*q], g.flags[:n])
	ld.UnpackFace(face.Opposite(), g.buf[:n*q], g.flags[:n])
}

// exchangeAxis runs one axis phase over all block pairs (plus the
// periodic wrap across the global boundary when the axis is periodic).
func (g *blockGrid) exchangeAxis(axis int) {
	perX, perY, perZ := g.c.periodic()
	var parts int
	var periodic bool
	var minFace, maxFace core.Face
	switch axis {
	case 0:
		parts, periodic, minFace, maxFace = g.px, perX, core.FaceXMin, core.FaceXMax
	case 1:
		parts, periodic, minFace, maxFace = g.py, perY, core.FaceYMin, core.FaceYMax
	default:
		parts, periodic, minFace, maxFace = g.pz, perZ, core.FaceZMin, core.FaceZMax
	}
	if parts == 1 {
		if periodic {
			for _, l := range g.lats {
				l.PeriodicAxis(axis)
			}
		}
		return
	}
	each := func(fn func(bx, by, bz int)) {
		for bz := 0; bz < g.pz; bz++ {
			for by := 0; by < g.py; by++ {
				for bx := 0; bx < g.px; bx++ {
					fn(bx, by, bz)
				}
			}
		}
	}
	each(func(bx, by, bz int) {
		coord := [3]int{bx, by, bz}
		if coord[axis] == parts-1 && !periodic {
			return
		}
		next := coord
		next[axis] = (coord[axis] + 1) % parts
		a := g.at(coord[0], coord[1], coord[2])
		b := g.at(next[0], next[1], next[2])
		// a's upper interior layer fills b's lower halo, and vice versa.
		g.transfer(a, b, maxFace)
		g.transfer(b, a, minFace)
	})
}

// step advances all blocks one time step.
func (g *blockGrid) step() {
	g.exchangeAxis(2)
	for i, l := range g.lats {
		for _, bc := range g.conds[i] {
			boundary.ApplyWhole(bc, l)
		}
	}
	g.exchangeAxis(0)
	g.exchangeAxis(1)
	for _, l := range g.lats {
		l.StepFused()
	}
}

// gather stitches the per-block macroscopic fields into the global field.
func (g *blockGrid) gather() *core.MacroField {
	c := g.c
	out := &core.MacroField{
		NX: c.NX, NY: c.NY, NZ: c.NZ,
		Rho: make([]float64, c.NX*c.NY*c.NZ),
		Ux:  make([]float64, c.NX*c.NY*c.NZ),
		Uy:  make([]float64, c.NX*c.NY*c.NZ),
		Uz:  make([]float64, c.NX*c.NY*c.NZ),
	}
	for i, b := range g.blocks {
		m := g.lats[i].ComputeMacro()
		for y := 0; y < b.NY; y++ {
			for x := 0; x < b.NX; x++ {
				for z := 0; z < b.NZ; z++ {
					li := m.Idx(x, y, z)
					gi := out.Idx(b.X0+x, b.Y0+y, b.Z0+z)
					out.Rho[gi] = m.Rho[li]
					out.Ux[gi] = m.Ux[li]
					out.Uy[gi] = m.Uy[li]
					out.Uz[gi] = m.Uz[li]
				}
			}
		}
	}
	return out
}
