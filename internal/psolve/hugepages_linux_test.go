//go:build linux

package psolve

import (
	"testing"

	"sunwaylb/internal/alloctest"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/resil"
)

// TestLargeArraysOnHugePages: the payload a non-root worker sends in
// GatherMacro, 4 MiB for a 32×64×64 block, sits in a mapping advised
// onto transparent huge pages. Without THP there is no advice to check.
func TestLargeArraysOnHugePages(t *testing.T) {
	b := decomp.Block{NX: 32, NY: 64, NZ: 64}
	l, err := core.NewLattice(&lattice.D3Q19, b.NX, b.NY, b.NZ, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	alloctest.OnHugePages(t, "macro payload", macroPayload([]resil.Owned{{Block: b, Lat: l}}))
}
