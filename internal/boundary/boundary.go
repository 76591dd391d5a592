// Package boundary implements the boundary conditions of SunwayLB's
// pre-processing module: velocity inlets, pressure outlets, zero-gradient
// outflow, free-slip and no-slip planes, and periodic axes.
//
// All conditions operate on the halo (ghost) layer of a core.Lattice: they
// are applied once per time step, before the fused collide–stream kernel,
// so the pull streaming picks the boundary populations up naturally. This
// matches the paper's halo-cell scheme (Fig. 9(1)) where boundary cells
// obtain their data from a single layer of externally-maintained halo
// cells. A Set is also a core.Faces: core.Pool.StepFaces runs it inside
// its sweep, filling the next step's halo one y-plane at a time.
package boundary

import (
	"fmt"

	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
)

// Condition is a boundary condition applied to the lattice halo before
// each time step.
type Condition interface {
	// Name identifies the condition for diagnostics.
	Name() string
	// HaloFace is the face whose halo layer the condition fills (the low
	// face of a periodic axis); its lines are the condition's lines.
	HaloFace() core.Face
	// ApplyLines fills lines j0 ≤ j < j1 of the halo layer, numbered as
	// core.Lattice.FaceLine numbers them: by allocated y on the x and z
	// faces, by allocated x on the y faces. Line j reads only line j of
	// the layers beneath it and writes only line j of the halo.
	ApplyLines(l *core.Lattice, j0, j1 int)
}

// ApplyWhole fills the condition's whole halo layer: ApplyLines over
// every line of its face.
func ApplyWhole(c Condition, l *core.Lattice) {
	c.ApplyLines(l, 0, l.FaceLines(c.HaloFace()))
}

// Set is an ordered collection of boundary conditions applied together.
// Order matters where conditions touch overlapping halo edges: later
// conditions win. It implements core.Faces, so a core.Pool can run it
// inside its sweep, one y-plane at a time, from its workers.
type Set struct {
	conds []Condition
}

// Add appends conditions to the set.
func (s *Set) Add(c ...Condition) { s.conds = append(s.conds, c...) }

// Apply applies every condition in order.
func (s *Set) Apply(l *core.Lattice) {
	for _, c := range s.conds {
		ApplyWhole(c, l)
	}
}

// Len reports the number of conditions.
func (s *Set) Len() int { return len(s.conds) }

// byPlane reports whether the condition's lines are indexed by allocated
// y — the x and z faces — so that it can run one y-plane at a time.
func byPlane(c Condition) bool {
	f := c.HaloFace()
	return f != core.FaceYMin && f != core.FaceYMax
}

// Wrap marks the axes the set wraps with a Periodic and touches with no
// other condition (core.Faces): the axes a sweep under the set reads
// across.
func (s *Set) Wrap() core.Wrap {
	var w, faced [3]bool
	for _, c := range s.conds {
		if p, ok := c.(*Periodic); ok {
			w[p.Axis] = true
		} else {
			faced[int(c.HaloFace())/2] = true
		}
	}
	for a := range w {
		w[a] = w[a] && !faced[a]
	}
	return w
}

// applyLines runs lines j0 ≤ j < j1 of the set's condition at position
// i for a sweep that reads across the axes w marks: a wrap of such an
// axis fills only the edge cells that sweep and the set's other
// conditions still read (edgesAfter).
func (s *Set) applyLines(i int, l *core.Lattice, j0, j1 int, w core.Wrap) {
	c := s.conds[i]
	if p, ok := c.(*Periodic); ok && w[p.Axis] {
		l.PeriodicEdges(p.Axis, j0, j1, s.edgesAfter(i, w))
		return
	}
	c.ApplyLines(l, j0, j1)
}

// edgesAfter marks the edge cells the wrap at position i fills for a
// sweep that reads across w, next to each face of an axis w does not
// wrap (core.AllEdges): the face's halo cells unless a later condition
// writes their populations, and its boundary-layer cells unless every
// condition on the face is an inlet, which neither reads them nor
// leaves its halo's populations to the wraps. The boundary layers are
// the same for every wrap, so a wrap never copies a cell another wrap
// left unfilled into a slot the sweep has filled, and the populations
// of halo walls stay what a whole fill leaves there.
func (s *Set) edgesAfter(i int, w core.Wrap) core.EdgeCells {
	e := core.AllEdges(w)
	var on, inlets [6]int
	for j, c := range s.conds {
		lo, hi := c.HaloFace(), c.HaloFace()
		if _, ok := c.(*Periodic); ok {
			hi = lo + 1 // a wrap writes and reads both faces of its axis
		}
		for f := lo; f <= hi; f++ {
			on[f]++
			switch c.(type) {
			case *VelocityInlet:
				inlets[f]++
			case *NoSlip, *MovingNoSlip:
				continue // they set flags only
			}
			e.Halo[f] = e.Halo[f] && j <= i
		}
	}
	for f := range e.Layer {
		e.Layer[f] = e.Layer[f] && (on[f] == 0 || inlets[f] < on[f])
	}
	return e
}

// ApplyPlane applies, in order, the x- and z-face conditions to allocated
// y-plane ay alone, for a sweep that reads across the set's wraps
// (core.Faces). Pool workers call it concurrently for distinct planes.
func (s *Set) ApplyPlane(l *core.Lattice, ay int) {
	w := s.Wrap()
	for i, c := range s.conds {
		if byPlane(c) {
			s.applyLines(i, l, ay, ay+1, w)
		}
	}
}

// ApplyTail applies every condition in order, for a sweep that reads
// across the set's wraps: the x- and z-face ones to the given allocated
// y-planes, the y-face ones whole (core.Faces).
func (s *Set) ApplyTail(l *core.Lattice, planes []int) {
	w := s.Wrap()
	for i, c := range s.conds {
		if !byPlane(c) {
			s.applyLines(i, l, 0, l.FaceLines(c.HaloFace()), w)
			continue
		}
		for _, ay := range planes {
			s.applyLines(i, l, ay, ay+1, w)
		}
	}
}

// Every condition streams over the halo layer of its face one core.Line at
// a time (z-rows on the x and y faces, x-rows on the z faces), facing the
// interior boundary line one step inward along the normal. The layer
// covers the FULL allocated plane, including the halo edges and corners
// shared with other faces — D3Q19 streaming pulls diagonally from those
// edge cells, so they must be owned by some condition. Where two faces
// meet, whichever condition is applied later wins; put wall-type
// conditions last for watertight corners. The storage scheme and phase
// of the lattice only select the per-population bases inside core's line
// primitives, so one implementation serves double buffers and AA storage
// at either parity with the same per-cell arithmetic.

// chunk is the number of cells a computed condition stages at a time.
const chunk = 64

// block is the stack scratch (≈ 14 KB) that holds the staged cells the way
// core.GatherLine delivers them at pitch chunk: population i of staged
// cell c at block[i*chunk+c].
type block [core.MaxQ * chunk]float64

// load copies the populations of staged cell c into f.
func (b *block) load(f []float64, c int) {
	for i := range f {
		f[i] = b[i*chunk+c]
	}
}

// store copies f into staged cell c.
func (b *block) store(f []float64, c int) {
	for i, fi := range f {
		b[i*chunk+c] = fi
	}
}

// setFlags classifies every cell of the line.
func setFlags(l *core.Lattice, ln core.Line, t core.CellType) {
	for k := 0; k < ln.Len; k++ {
		l.Flags[ln.Cell(k)] = t
	}
}

// clamp pulls a halo coordinate onto the nearest interior one.
func clamp(v, n int) int {
	return max(0, min(v, n-1))
}

// VelocityInlet imposes a uniform velocity (and density) on a face by
// filling the halo with the corresponding equilibrium distribution. This
// is the standard equilibrium-ghost inlet; for small Mach numbers it is
// accurate and unconditionally stable.
type VelocityInlet struct {
	Face core.Face
	Rho  float64
	U    [3]float64
	// Profile, if non-nil, overrides U per halo cell; it receives the
	// interior-facing coordinates of the halo cell in the lattice it
	// fills (psolve.FaceConds shifts a block's to global ones). A
	// core.Pool calls it from its workers, so it must be safe for
	// concurrent calls.
	Profile func(x, y, z int) [3]float64
}

// Name implements Condition.
func (v *VelocityInlet) Name() string { return fmt.Sprintf("velocity-inlet(%v)", v.Face) }

// HaloFace implements Condition.
func (v *VelocityInlet) HaloFace() core.Face { return v.Face }

// ApplyLines implements Condition.
//
//lbm:hot traffic budget=320 assume q=19
func (v *VelocityInlet) ApplyLines(l *core.Lattice, j0, j1 int) {
	rho := v.Rho
	if rho == 0 {
		rho = 1
	}
	d := l.Desc
	var buf block
	var fArr [core.MaxQ]float64
	f := fArr[:d.Q]
	if v.Profile == nil {
		d.EquilibriumAll(f, rho, v.U[0], v.U[1], v.U[2])
		for c := 0; c < chunk; c++ {
			buf.store(f, c)
		}
	}
	for j := j0; j < j1; j++ {
		halo := l.FaceLine(v.Face, 1, j)
		for k0 := 0; k0 < halo.Len; k0 += chunk {
			k1 := min(k0+chunk, halo.Len)
			if v.Profile != nil {
				for k := k0; k < k1; k++ {
					x, y, z := l.Coords(halo.Cell(k))
					u := v.Profile(clamp(x, l.NX), clamp(y, l.NY), clamp(z, l.NZ))
					d.EquilibriumAll(f, rho, u[0], u[1], u[2])
					buf.store(f, k-k0)
				}
			}
			l.ScatterLine(halo, k0, k1, buf[:], chunk)
		}
		setFlags(l, halo, core.Ghost)
	}
}

// PressureOutlet imposes a density (pressure p = ρ c_s²) on a face; the
// outgoing velocity is extrapolated from the adjacent interior cell. A
// D3Q19 lattice runs the unrolled row (outletRowD3Q19), bitwise equal to
// the descriptor-generic loop every other descriptor runs.
type PressureOutlet struct {
	Face core.Face
	Rho  float64
}

// Name implements Condition.
func (p *PressureOutlet) Name() string { return fmt.Sprintf("pressure-outlet(%v)", p.Face) }

// HaloFace implements Condition.
func (p *PressureOutlet) HaloFace() core.Face { return p.Face }

// ApplyLines implements Condition.
//
//lbm:hot traffic budget=320 assume q=19
func (p *PressureOutlet) ApplyLines(l *core.Lattice, j0, j1 int) {
	rho := p.Rho
	if rho == 0 {
		rho = 1
	}
	d := l.Desc
	var buf block
	var fArr [core.MaxQ]float64
	f := fArr[:d.Q]
	for j := j0; j < j1; j++ {
		halo, inner := l.FaceLine(p.Face, 1, j), l.FaceLine(p.Face, 0, j)
		for k0 := 0; k0 < halo.Len; k0 += chunk {
			k1 := min(k0+chunk, halo.Len)
			l.GatherLine(inner, k0, k1, buf[:], chunk)
			if d == &lattice.D3Q19 {
				outletRowD3Q19(&buf, k1-k0, rho)
			} else {
				for c := 0; c < k1-k0; c++ {
					buf.load(f, c)
					r, jx, jy, jz := d.Moments(f)
					var ux, uy, uz float64
					if r > 0 {
						ux, uy, uz = jx/r, jy/r, jz/r
					}
					d.EquilibriumAll(f, rho, ux, uy, uz)
					buf.store(f, c)
				}
			}
			l.ScatterLine(halo, k0, k1, buf[:], chunk)
		}
		setFlags(l, halo, core.Ghost)
	}
}

// copyLines fills lines j0 ≤ j < j1 of the halo of a face from the facing
// interior cells: halo population i takes interior population perm[i] (i
// when perm is nil).
func copyLines(l *core.Lattice, f core.Face, perm []int, j0, j1 int) {
	for j := j0; j < j1; j++ {
		halo := l.FaceLine(f, 1, j)
		l.CopyLine(halo, l.FaceLine(f, 0, j), perm)
		setFlags(l, halo, core.Ghost)
	}
}

// Outflow is a zero-gradient (copy) outflow: the halo mirrors the adjacent
// interior cell's populations exactly.
type Outflow struct {
	Face core.Face
}

// Name implements Condition.
func (o *Outflow) Name() string { return fmt.Sprintf("outflow(%v)", o.Face) }

// HaloFace implements Condition.
func (o *Outflow) HaloFace() core.Face { return o.Face }

// ApplyLines implements Condition.
func (o *Outflow) ApplyLines(l *core.Lattice, j0, j1 int) { copyLines(l, o.Face, nil, j0, j1) }

// NoSlip marks the halo of a face as a solid wall, turning the face into a
// bounce-back plate positioned half a cell outside the first fluid layer.
type NoSlip struct {
	Face core.Face
}

// Name implements Condition.
func (w *NoSlip) Name() string { return fmt.Sprintf("no-slip(%v)", w.Face) }

// HaloFace implements Condition.
func (w *NoSlip) HaloFace() core.Face { return w.Face }

// ApplyLines implements Condition.
func (w *NoSlip) ApplyLines(l *core.Lattice, j0, j1 int) {
	for j := j0; j < j1; j++ {
		setFlags(l, l.FaceLine(w.Face, 1, j), core.Wall)
	}
}

// MovingNoSlip is a bounce-back plate moving tangentially with velocity U
// (e.g. the lid of a lid-driven cavity).
type MovingNoSlip struct {
	Face core.Face
	U    [3]float64
}

// Name implements Condition.
func (w *MovingNoSlip) Name() string { return fmt.Sprintf("moving-no-slip(%v)", w.Face) }

// HaloFace implements Condition.
func (w *MovingNoSlip) HaloFace() core.Face { return w.Face }

// ApplyLines implements Condition. A cell not yet moving becomes a
// MovingWall of velocity U. The wall-velocity map is written only where
// its entry is missing or differs: NoSlip on a neighbouring face resets
// the shared edge cells' flags every step but not their entries, so
// after the first application the lines only read the map, and pool
// workers may run them while other workers' sweeps read it.
func (w *MovingNoSlip) ApplyLines(l *core.Lattice, j0, j1 int) {
	for j := j0; j < j1; j++ {
		halo := l.FaceLine(w.Face, 1, j)
		for k := 0; k < halo.Len; k++ {
			if idx := halo.Cell(k); l.Flags[idx] != core.MovingWall {
				l.Flags[idx] = core.MovingWall
				if u, ok := l.WallVel[idx]; !ok || u != w.U {
					l.WallVel[idx] = w.U
				}
			}
		}
	}
}

// FreeSlip is a specular-reflection plane: the halo receives the interior
// populations with the face-normal velocity component mirrored, producing
// zero normal flux but no tangential drag.
type FreeSlip struct {
	Face core.Face
}

// Name implements Condition.
func (fs *FreeSlip) Name() string { return fmt.Sprintf("free-slip(%v)", fs.Face) }

// HaloFace implements Condition.
func (fs *FreeSlip) HaloFace() core.Face { return fs.Face }

// ApplyLines implements Condition.
func (fs *FreeSlip) ApplyLines(l *core.Lattice, j0, j1 int) {
	m := mirrorTable(l.Desc, int(fs.Face)/2)
	copyLines(l, fs.Face, m[:l.Desc.Q], j0, j1)
}

// Periodic wraps one axis (0=x, 1=y, 2=z) periodically. Applied whole it
// copies the axis's halo; a sweep that reads across the axis needs only
// its edges filled, which a Set's per-plane and tail fills do instead.
type Periodic struct {
	Axis int
}

// Name implements Condition.
func (p *Periodic) Name() string { return fmt.Sprintf("periodic(axis=%d)", p.Axis) }

// HaloFace implements Condition: the axis's low face, whose lines are
// also the high face's.
func (p *Periodic) HaloFace() core.Face { return core.Face(2 * p.Axis) }

// ApplyLines implements Condition.
func (p *Periodic) ApplyLines(l *core.Lattice, j0, j1 int) { l.PeriodicLines(p.Axis, j0, j1) }

// mirrorTable returns, for each direction i < Q, the direction whose
// velocity equals c_i with the given axis component negated. It is a
// value, so a free-slip line run per plane allocates nothing.
func mirrorTable(d *lattice.Descriptor, axis int) (m [core.MaxQ]int) {
	for i := 0; i < d.Q; i++ {
		want := d.C[i]
		want[axis] = -want[axis]
		m[i] = -1
		for j := 0; j < d.Q; j++ {
			if d.C[j] == want {
				m[i] = j
				break
			}
		}
		if m[i] < 0 {
			// All standard descriptors are closed under axis
			// mirroring; this is unreachable for them.
			panic(fmt.Sprintf("boundary: %s not closed under axis-%d mirror", d.Name, axis))
		}
	}
	return m
}
