package psolve

import (
	"fmt"

	"sunwaylb/internal/core"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/resil"
)

// tagSnap is the rank world's snapshot-wave tag base, after the face
// tags: resil.Store.Tag lays one tag per rank and message kind above it.
const tagSnap = tagYMinus + 1

// ResilCapture runs the rank's share of one in-memory snapshot wave of
// the checkpoint hierarchy in internal/resil — L1 capture, L2 buddy
// push/receive, L3 parity exchange, the levels selected by the mask. A
// rank is a worker that owns one block, so this is the patch world's wave
// over the identity owner map. It is a group-wise collective: every rank
// of a parity group must call it at the same step, like a checkpoint
// gather.
func (s *Solver) ResilCapture(st *resil.Store, levels resil.Levels) error {
	return st.Wave(s.Comm, s.owner, s.owned, tagSnap, levels)
}

// GatherLattice assembles the complete global solver state — populations,
// cell flags and the step counter — into one core.Lattice on rank root
// (nil elsewhere). The result can be written with swio.WriteCheckpoint
// and later redistributed through Options.Restore, giving the distributed
// solver the same fault-recovery path as the serial one (§IV-B's
// checkpoint/restart controller; on the real machine the leaders of the
// group-I/O plan do this aggregation).
func (s *Solver) GatherLattice(root int) (*core.Lattice, error) {
	return GatherLattice(s.Comm, root, s.owned, (&rankWorld{s.Opts}).Assemble)
}

// GatherLattice is the L4 gather of every world: every worker captures
// each block it owns as a snapshot, the snapshots travel to root, and
// assemble (the world's Decomposition.Assemble) places them there into
// one global lattice (nil elsewhere). Every worker must call it.
func GatherLattice(c *mpi.Comm, root int, owned []resil.Owned, assemble func(*resil.Recovery) (*core.Lattice, error)) (*core.Lattice, error) {
	rec, err := resil.Gather(c, root, owned)
	if rec == nil {
		return nil, err
	}
	return assemble(rec)
}

// GatherMacro assembles the global macroscopic fields on rank root;
// other ranks return nil.
func (s *Solver) GatherMacro(root int) *core.MacroField {
	return GatherMacro(s.Comm, root, s.Opts.GNX, s.Opts.GNY, s.Opts.GNZ, s.owned)
}

// GatherMacro is the macro gather of every world: it stitches the fields
// of every worker's owned blocks into the global gnx×gny×gnz field on
// root (nil elsewhere). Root computes its own blocks straight into the
// global field; every other worker sends its blocks' macroPayload, from
// which root copies z-runs. Every worker must call it.
func GatherMacro(c *mpi.Comm, root, gnx, gny, gnz int, owned []resil.Owned) *core.MacroField {
	var payload []float64
	if c.Rank() != root {
		payload = macroPayload(owned)
	}
	msgs := c.Gather(root, mpi.Message{Data: payload})
	if msgs == nil {
		return nil
	}
	g := core.NewMacroField(gnx, gny, gnz)
	for _, o := range owned {
		o.Lat.MacroInto(g, o.Block.X0, o.Block.Y0, o.Block.Z0, o.Lat.Interior())
	}
	for _, m := range msgs { // root's own payload is empty
		for d := m.Data; len(d) > 0; {
			h := d[:macroHeader]
			nx, ny, nz := int(h[3]), int(h[4]), int(h[5])
			g.Place(core.MacroFieldOver(d[macroHeader:], nx, ny, nz), int(h[0]), int(h[1]), int(h[2]))
			d = d[macroHeader+4*nx*ny*nz:]
		}
	}
	return g
}

// macroPayload computes the fields of owned blocks into one exact-size
// payload: per block its origin and extents, then its four channels.
func macroPayload(owned []resil.Owned) []float64 {
	size := 0
	for _, o := range owned {
		size += macroHeader + 4*o.Block.Cells()
	}
	payload := core.Alloc[float64](size, size)
	d := payload
	for _, o := range owned {
		b := o.Block
		copy(d, []float64{float64(b.X0), float64(b.Y0), float64(b.Z0),
			float64(b.NX), float64(b.NY), float64(b.NZ)})
		o.Lat.MacroInto(core.MacroFieldOver(d[macroHeader:], b.NX, b.NY, b.NZ), 0, 0, 0, o.Lat.Interior())
		d = d[macroHeader+4*b.Cells():]
	}
	return payload
}

// macroHeader is the number of words ahead of a block in a GatherMacro
// payload: the block's origin and extents.
const macroHeader = 6

// restoreFrom copies this rank's sub-block of a global lattice (same
// dimensions and descriptor) into the local state: populations, interior
// flags and the step counter.
func (s *Solver) restoreFrom(g *core.Lattice) error {
	if g.NX != s.Opts.GNX || g.NY != s.Opts.GNY || g.NZ != s.Opts.GNZ {
		return fmt.Errorf("psolve: restore lattice %d×%d×%d does not match case %d×%d×%d",
			g.NX, g.NY, g.NZ, s.Opts.GNX, s.Opts.GNY, s.Opts.GNZ)
	}
	if g.Desc.Q != s.Lat.Desc.Q {
		return fmt.Errorf("psolve: restore descriptor %s does not match %s", g.Desc.Name, s.Lat.Desc.Name)
	}
	// Adopt the checkpoint's step BEFORE writing populations: on an AA
	// lattice the step parity selects the storage layout, and the restore
	// must land in the slots the resumed stepper will read.
	s.Lat.SetStep(g.Step())
	var blk resil.Snapshot
	resil.CaptureAt(&blk, g, s.Block, s.Comm.Rank())
	return resil.RestoreInto(s.Lat, &blk)
}
