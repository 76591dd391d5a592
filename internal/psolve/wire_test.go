package psolve

import (
	"math"
	"testing"

	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
)

// wireLattice builds a 4×3×5 lattice of desc whose every allocated cell
// holds distinct populations derived from seed, with a wall on each
// interior boundary layer, stored in place (AA) at the parity of step.
func wireLattice(t testing.TB, desc *lattice.Descriptor, step int, seed float64) *core.Lattice {
	t.Helper()
	l, err := core.BuildLattice(desc, core.Box{NX: 4, NY: 3, NZ: 5}, 0.8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, desc.Q)
	for y := -1; y <= l.NY; y++ {
		for x := -1; x <= l.NX; x++ {
			for z := -1; z <= l.NZ; z++ {
				for i := range f {
					f[i] = seed + float64(l.Idx(x, y, z)) + float64(i)/64
				}
				l.SetPopulations(x, y, z, f)
			}
		}
	}
	l.SetWall(0, 1, 2)
	l.SetWall(l.NX-1, 2, 0)
	l.SetWall(2, 0, l.NZ-1)
	l.SetWall(1, l.NY-1, 0)
	l.SetStep(step)
	l.EnableAA()
	return l
}

// TestLinkSlotIsCrossingFace: a link's two send slots hold the face's
// crossing populations and the trailer, nothing more, on every face of
// every descriptor — 3/5/5/9 populations per cell on the x and y faces of
// D2Q9/D3Q15/D3Q19/D3Q27.
func TestLinkSlotIsCrossingFace(t *testing.T) {
	for _, c := range []struct {
		desc  *lattice.Descriptor
		cross int
	}{{&lattice.D2Q9, 3}, {&lattice.D3Q15, 5}, {&lattice.D3Q19, 5}, {&lattice.D3Q27, 9}} {
		l := wireLattice(t, c.desc, 0, 0)
		for f := core.FaceXMin; f <= core.FaceZMax; f++ {
			want := len(l.Crossing(f))*l.FaceCells(f) + linkTrailer
			if f <= core.FaceYMax && len(l.Crossing(f)) != c.cross {
				t.Errorf("%s face %v crosses %d populations, want %d", c.desc.Name, f, len(l.Crossing(f)), c.cross)
			}
			k := NewLink(l, f, 1, 1, 2)
			for s, slot := range k.slots {
				if len(slot) != want {
					t.Errorf("%s face %v: slot %d holds %d words, want %d", c.desc.Name, f, s, len(slot), want)
				}
			}
		}
	}
}

// TestLinkCarriesCrossingOnly posts and collects one face per axis between
// two ranks, at both AA parities and for every descriptor, and requires
// each receiver to end up, in every allocated cell, exactly as defined:
// the halo layer at the link's face holds the peer's crossing populations
// of the facing cells bitwise, and the peer's non-Ghost flags (the first
// message carries them); every other population and flag keeps its
// value.
func TestLinkCarriesCrossingOnly(t *testing.T) {
	for _, desc := range []*lattice.Descriptor{&lattice.D2Q9, &lattice.D3Q15, &lattice.D3Q19, &lattice.D3Q27} {
		for step := 0; step <= 1; step++ {
			// Per rank and axis: its lattice, a copy of the peer's as it
			// was sent, and a copy of its own to write the definition into.
			var own, peer, want [2][3]*core.Lattice
			for me := range own {
				for axis := range own[me] {
					own[me][axis] = wireLattice(t, desc, step, float64(1000*me))
					peer[me][axis] = wireLattice(t, desc, step, float64(1000*(1-me)))
					want[me][axis] = wireLattice(t, desc, step, float64(1000*me))
				}
			}
			err := mpi.Run(2, func(c *mpi.Comm) error {
				me := c.Rank()
				for axis := 0; axis < 3; axis++ {
					face := core.Face(2*axis + 1 - me) // rank 0 sends its max face, rank 1 its min face
					send, recv := 10+axis, 20+axis
					if me == 1 {
						send, recv = recv, send
					}
					l := own[me][axis]
					k := NewLink(l, face, 1-me, send, recv)
					k.Post(c, l)
					k.Collect(c, l)
					linkedByDefinition(peer[me][axis], want[me][axis], face)
					requireSameLattice(t, want[me][axis], l, desc.Name+" "+face.String()+[]string{" even", " odd"}[step])
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// linkedByDefinition writes into rcv what a link at rcv's face f must
// leave after collecting the face peer sent from f.Opposite(): every cell
// of rcv's halo layer at f takes, in each population whose velocity points
// into the block, the facing cell's value from peer's interior boundary
// layer, and that cell's flag unless it is Ghost.
func linkedByDefinition(peer, rcv *core.Lattice, f core.Face) {
	a := int(f) / 2
	n := [3]int{rcv.NX, rcv.NY, rcv.NZ}
	halo, from, in := -1, n[a]-1, 1 // a min face: inward is +axis
	if f%2 == 1 {
		halo, from, in = n[a], 0, -1
	}
	var fp, fr []float64
	for y := -1; y <= rcv.NY; y++ {
		for x := -1; x <= rcv.NX; x++ {
			for z := -1; z <= rcv.NZ; z++ {
				c := [3]int{x, y, z}
				if c[a] != halo {
					continue
				}
				s := c
				s[a] = from
				fp = peer.Populations(s[0], s[1], s[2], fp)
				fr = rcv.Populations(x, y, z, fr)
				for i := range fr {
					if rcv.Desc.C[i][a] == in {
						fr[i] = fp[i]
					}
				}
				rcv.SetPopulations(x, y, z, fr)
				if fl := peer.CellTypeAt(s[0], s[1], s[2]); fl != core.Ghost {
					rcv.Flags[rcv.Idx(x, y, z)] = fl
				}
			}
		}
	}
}

// requireSameLattice fails unless every allocated cell of got has the
// logical populations, bitwise, and the flag of the same cell of want.
func requireSameLattice(t *testing.T, want, got *core.Lattice, what string) {
	t.Helper()
	var fw, fg []float64
	for y := -1; y <= want.NY; y++ {
		for x := -1; x <= want.NX; x++ {
			for z := -1; z <= want.NZ; z++ {
				if w, g := want.CellTypeAt(x, y, z), got.CellTypeAt(x, y, z); w != g {
					t.Errorf("%s: cell (%d,%d,%d) flag %v, want %v", what, x, y, z, g, w)
					return
				}
				fw = want.Populations(x, y, z, fw)
				fg = got.Populations(x, y, z, fg)
				for i := range fw {
					if math.Float64bits(fw[i]) != math.Float64bits(fg[i]) {
						t.Errorf("%s: cell (%d,%d,%d) pop %d = %v, want %v", what, x, y, z, i, fg[i], fw[i])
						return
					}
				}
			}
		}
	}
}
