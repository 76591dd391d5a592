// Package core implements the heart of SunwayLB: the D3Q19 lattice
// Boltzmann solver with structure-of-arrays population storage, the A–B
// (ping-pong) double-buffer memory layout and the fused pull-scheme
// collide–stream kernel described in §IV of the paper.
//
// The computational domain is a block of NX×NY×NZ interior cells surrounded
// by a single layer of halo (ghost) cells. Populations are stored with the
// z coordinate contiguous in memory (the paper blocks data along z for DMA
// efficiency), then x, then y.
package core

import (
	"fmt"

	"sunwaylb/internal/lattice"
)

// CellType classifies a lattice cell.
type CellType uint8

const (
	// Fluid cells are updated by the collide–stream kernel.
	Fluid CellType = iota
	// Wall cells are solid no-slip obstacles handled by half-way
	// bounce-back: a population pulled from a Wall neighbour reflects.
	Wall
	// MovingWall cells are solid cells with a prescribed wall velocity
	// (e.g. the lid of a lid-driven cavity); bounce-back picks up a
	// momentum correction term.
	MovingWall
	// Ghost cells form the halo ring. Their populations are supplied
	// externally (by periodic wrap, halo exchange or a boundary
	// condition) and are pulled from directly during streaming.
	Ghost
)

// String implements fmt.Stringer for diagnostics.
func (c CellType) String() string {
	switch c {
	case Fluid:
		return "Fluid"
	case Wall:
		return "Wall"
	case MovingWall:
		return "MovingWall"
	case Ghost:
		return "Ghost"
	}
	return fmt.Sprintf("CellType(%d)", uint8(c))
}

// Lattice is a block of D3Q19 (or other descriptor) lattice cells with
// double-buffered SoA population storage.
//
// Interior cells have coordinates 0 ≤ x < NX, 0 ≤ y < NY, 0 ≤ z < NZ.
// The halo ring has coordinates −1 and NX (resp. NY, NZ).
type Lattice struct {
	Desc *lattice.Descriptor

	// NX, NY, NZ are the interior dimensions.
	NX, NY, NZ int
	// AX, AY, AZ are the allocated dimensions (interior + 2 halo layers).
	AX, AY, AZ int
	// N is the number of allocated cells (AX·AY·AZ).
	N int

	// F holds the two population copies of the A–B pattern. Population q
	// of cell idx lives at F[b][q*N+idx]. F[src] holds the post-collision
	// values of the previous step; the fused kernel gathers from it and
	// writes into F[1−src]. Only F[0] exists until a double-buffer stepper
	// first asks for Dst(), so a lattice stepped in place (AA) never has
	// the second array resident.
	F [2][]float64

	// Flags holds the cell classification for every allocated cell.
	Flags []CellType

	// WallVel maps MovingWall cell indices to their wall velocity.
	WallVel map[int][3]float64

	// Tau is the LBGK relaxation time.
	Tau float64
	// Force is a constant body force density applied via the Guo forcing
	// scheme (zero disables forcing). Used to drive channel flows and
	// wind fields.
	Force [3]float64
	// Smagorinsky is the Smagorinsky constant C_s of the LES model;
	// zero disables the subgrid model (pure DNS/LBGK).
	Smagorinsky float64

	// src selects which of the two buffers holds the current state.
	src int
	// step counts completed time steps.
	step int

	// offs[q] is the linear index offset of neighbour c_q.
	offs []int

	// aa selects single-array AA-pattern storage (see aa.go): F[0] is the
	// only buffer and the in-array layout alternates with step parity.
	aa bool

	// noFastPath disables the unrolled D3Q19 row kernel (testing hook).
	noFastPath bool
}

// NewLattice allocates a lattice of nx×ny×nz interior cells using the given
// descriptor and relaxation time. All interior cells start as Fluid and all
// halo cells as Ghost; populations are initialised to the rest equilibrium
// (ρ=1, u=0). It is BuildLattice with no walls and no initial state.
func NewLattice(desc *lattice.Descriptor, nx, ny, nz int, tau float64) (*Lattice, error) {
	return BuildLattice(desc, Box{NX: nx, NY: ny, NZ: nz}, tau, nil, nil)
}

// Idx returns the linear index of interior coordinates (x, y, z); halo
// coordinates −1 and N{X,Y,Z} are also valid.
func (l *Lattice) Idx(x, y, z int) int {
	return ((y+1)*l.AX+(x+1))*l.AZ + (z + 1)
}

// Coords inverts Idx, returning interior coordinates (halo cells yield −1
// or the interior dimension).
func (l *Lattice) Coords(idx int) (x, y, z int) {
	z = idx%l.AZ - 1
	idx /= l.AZ
	x = idx%l.AX - 1
	y = idx/l.AX - 1
	return
}

// Step returns the number of completed time steps.
func (l *Lattice) Step() int { return l.step }

// SetStep overrides the step counter; used by checkpoint restart.
func (l *Lattice) SetStep(s int) { l.step = s }

// Src returns the buffer currently holding the lattice state (the
// post-collision populations of the last completed step). For AA lattices
// at an odd step count the in-array layout is the reversed-shifted one —
// index logical populations through PopIndex/PopBase, not i*N+idx.
func (l *Lattice) Src() []float64 { return l.F[l.src] }

// Dst returns the buffer the next fused step will write into (nil for AA
// lattices, which update in place). The second array is allocated here, on
// first use, as a copy of the current state, so its halo and solid cells
// start from the same values as the source's.
func (l *Lattice) Dst() []float64 {
	if l.aa {
		return nil
	}
	if l.F[1-l.src] == nil {
		n := len(l.F[l.src])
		l.F[1-l.src] = Alloc[float64](n, n)
		copy(l.F[1-l.src], l.F[l.src])
	}
	return l.F[1-l.src]
}

// SwapBuffers flips the A–B buffers; used by kernels that run the update
// out-of-place externally (e.g. the Sunway-simulated solver). AA lattices
// have a single buffer and panic here.
func (l *Lattice) SwapBuffers() {
	if l.aa {
		panic("core: SwapBuffers on an AA-pattern lattice (single buffer; use StepFused)")
	}
	l.src = 1 - l.src
	l.step++
}

// InitEquilibrium sets every allocated cell of every resident buffer (the
// single AA array phase-aware) to the equilibrium distribution of the
// given uniform state.
func (l *Lattice) InitEquilibrium(rho, ux, uy, uz float64) {
	var feqArr [MaxQ]float64
	feq := feqArr[:l.Desc.Q]
	l.Desc.EquilibriumAll(feq, rho, ux, uy, uz)
	if l.aaOddPhase() {
		for idx := 0; idx < l.N; idx++ {
			for q := range feq {
				l.F[0][l.PopIndex(q, idx)] = feq[q]
			}
		}
		return
	}
	for _, f := range l.F {
		if f == nil {
			continue
		}
		for q := range feq {
			row := f[q*l.N : (q+1)*l.N]
			for i := range row {
				row[i] = feq[q]
			}
		}
	}
}

// SetCell sets the populations of one cell (in the current buffer) to the
// equilibrium of the given state. Used to impose initial conditions.
func (l *Lattice) SetCell(x, y, z int, rho, ux, uy, uz float64) {
	var feq [MaxQ]float64
	l.Desc.EquilibriumAll(feq[:l.Desc.Q], rho, ux, uy, uz)
	l.SetPopulations(x, y, z, feq[:])
}

// SetWall marks the cell as a solid no-slip wall.
func (l *Lattice) SetWall(x, y, z int) {
	idx := l.Idx(x, y, z)
	l.Flags[idx] = Wall
	delete(l.WallVel, idx)
}

// SetMovingWall marks the cell as a solid wall moving with velocity u.
func (l *Lattice) SetMovingWall(x, y, z int, ux, uy, uz float64) {
	idx := l.Idx(x, y, z)
	l.Flags[idx] = MovingWall
	l.WallVel[idx] = [3]float64{ux, uy, uz}
}

// SetFluid marks the cell as ordinary fluid.
func (l *Lattice) SetFluid(x, y, z int) {
	idx := l.Idx(x, y, z)
	l.Flags[idx] = Fluid
	delete(l.WallVel, idx)
}

// CellTypeAt returns the flag of the given (possibly halo) cell.
func (l *Lattice) CellTypeAt(x, y, z int) CellType { return l.Flags[l.Idx(x, y, z)] }

// FluidCells counts the interior fluid cells.
func (l *Lattice) FluidCells() int {
	n := 0
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			for z := 0; z < l.NZ; z++ {
				if l.Flags[l.Idx(x, y, z)] == Fluid {
					n++
				}
			}
		}
	}
	return n
}

// Populations copies the Q populations of a cell from the current buffer
// into out (length ≥ Q) and returns it; out==nil allocates.
func (l *Lattice) Populations(x, y, z int, out []float64) []float64 {
	if out == nil {
		out = make([]float64, l.Desc.Q)
	}
	idx := l.Idx(x, y, z)
	for q := 0; q < l.Desc.Q; q++ {
		out[q] = l.F[l.src][l.PopIndex(q, idx)]
	}
	return out
}

// SetPopulations writes the Q populations of a cell into the current buffer.
func (l *Lattice) SetPopulations(x, y, z int, f []float64) {
	idx := l.Idx(x, y, z)
	for q := 0; q < l.Desc.Q; q++ {
		l.F[l.src][l.PopIndex(q, idx)] = f[q]
	}
}
