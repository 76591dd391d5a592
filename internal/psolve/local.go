package psolve

import (
	"time"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/mpi"
)

// Local is the one-rank world: the whole lattice on one rank, stepped by
// a core.Pool that runs the boundary conditions inside its sweep. It is
// the rank world of the same Options on a 1×1 grid — same builder, same
// restore, same snapshot and checkpoint collectives — except for how its
// rank steps and what it keeps. The pool replaces the rank step (there is
// no exchange to overlap), and the world keeps the final lattice instead
// of gathering a global field: the ladder returns a nil field, and the
// caller draws or checkpoints from Lattice. A device prices the pool's
// step as it prices a rank's.
type Local struct {
	rankWorld
	lat    *core.Lattice
	bcs    *boundary.Set
	kernel string
}

// NewLocal lays opts' lattice on one rank.
func NewLocal(opts Options) *Local {
	opts.PX, opts.PY, opts.Restore = 1, 1, nil
	return &Local{rankWorld: rankWorld{opts}}
}

// NewRank builds the rank through New — from the case, or from a copy of
// restore, never restore itself — and a pool over its lattice; straggle
// inflates its Sim-clock step spans as on a rank world.
func (w *Local) NewRank(c *mpi.Comm, restore *core.Lattice, _ int, straggle float64) (Rank, error) {
	opts := w.opts
	opts.Restore = restore
	s, err := New(c, opts)
	if err != nil {
		return nil, err
	}
	s.StragglerFactor = straggle
	return &localRank{Solver: s, w: w, pool: core.NewPool(s.Lat, 0)}, nil
}

// Lattice is the final state of the last attempt (nil before a run). Its
// interior and the halo cells a step reads are the next step's; the
// steps read across the periodic axes, so the rest of their halo is
// left as it was (FillHalo).
func (w *Local) Lattice() *core.Lattice { return w.lat }

// FillHalo fills the final lattice's halo whole, as a plain step after
// it would read it: what a caller that writes out every allocated cell
// (a checkpoint) runs first.
func (w *Local) FillHalo() { w.bcs.Apply(w.lat) }

// Kernel names the code path the last attempt's pool ran, e.g.
// "aa avx512 d3q19 pool×2".
func (w *Local) Kernel() string { return w.kernel }

// HaloSet orders a block's own halo fill, the one-rank lattice's and
// every BlockStep's: the periodic z wrap, the face conditions conds, then
// the periodic x and y wraps that stand in for the halo exchange of an
// axis with one block along it.
func HaloSet(perX, perY, perZ bool, conds []boundary.Condition) *boundary.Set {
	var s boundary.Set
	if perZ {
		s.Add(&boundary.Periodic{Axis: 2})
	}
	s.Add(conds...)
	if perX {
		s.Add(&boundary.Periodic{Axis: 0})
	}
	if perY {
		s.Add(&boundary.Periodic{Axis: 1})
	}
	return &s
}

// localRank is the one rank of a Local world: a 1×1 Solver whose steps
// run on the pool.
type localRank struct {
	*Solver
	w    *Local
	pool *core.Pool
}

// FaceTime is the time the rank's pool has spent on the boundary
// conditions (core.Pool.FaceTime).
func (r *localRank) FaceTime() time.Duration { return r.pool.FaceTime() }

// Step advances the lattice one time step under the halo set; a device
// then prices it as on a rank (Solver.stepPriced), the first time with
// the flags that fill left.
func (r *localRank) Step() { r.stepPriced(r.stepPool) }

// stepPool is the pool step under the halo set.
func (r *localRank) stepPool() { r.pool.StepFaces(r.blk.fill) }

// GatherMacro gathers nothing: the world keeps the lattice instead. A
// lattice gone non-finite fails the run as a gathered field does.
func (r *localRank) GatherMacro(int) *core.MacroField {
	if n := r.Lat.NonFinite(); n > 0 {
		r.Comm.AbortRank(diverged(n, r.Lat.NX*r.Lat.NY*r.Lat.NZ, r.Lat.Step()))
	}
	return nil
}

// Close stops the pool and leaves the lattice to the world; the ladder
// calls it when the rank body ends.
func (r *localRank) Close() error {
	r.pool.Close()
	r.w.lat, r.w.bcs, r.w.kernel = r.Lat, r.blk.fill, r.pool.Kernel()
	return nil
}
