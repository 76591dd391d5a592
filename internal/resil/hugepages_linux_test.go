//go:build linux

package resil

import (
	"testing"
	"time"

	"sunwaylb/internal/alloctest"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
)

// TestLargeArraysOnHugePages: after a wave of a rank pair on blocks of
// ≈ 10 MB of populations, a rank's own L1 record (Snapshot.ensure) and
// the L2 buddy copy it adopted with its transport buffer (Store.take)
// both sit in mappings advised onto transparent huge pages, as the
// lattice does. Without THP there is no advice to check.
func TestLargeArraysOnHugePages(t *testing.T) {
	const nx, ny, nz = 16, 64, 64
	owned := make([]Owned, 2)
	blocks := make([]decomp.Block, 2)
	for h := range owned {
		l, err := core.NewLattice(&lattice.D3Q19, nx, ny, nz, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		blocks[h] = decomp.Block{X0: h * nx, NX: nx, NY: ny, NZ: nz}
		owned[h] = Owned{ID: h, Block: blocks[h], Lat: l}
	}
	st, err := NewStore(2, 2, blocks)
	if err != nil {
		t.Fatal(err)
	}
	world, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	world.SetRecvTimeout(10 * time.Second)
	err = mpi.RunWorld(world, func(c *mpi.Comm) error {
		return st.Wave(c, []int{0, 1}, owned[c.Rank():c.Rank()+1], 40, L1|L2|L3)
	})
	if err != nil {
		t.Fatal(err)
	}
	step := owned[0].Lat.Step()
	own, buddy := st.Slot(L1, 0, step), st.Slot(L2, 0, step)
	if 8*len(own.Pops) < 8<<20 || &own.Pops[0] == &buddy.Pops[0] {
		t.Fatalf("want two distinct records of ≥ 8 MiB, got %d and %d B", 8*len(own.Pops), 8*len(buddy.Pops))
	}
	alloctest.OnHugePages(t, "L1 record", own.Pops)
	alloctest.OnHugePages(t, "L2 record on its transport buffer", buddy.Pops)
}
