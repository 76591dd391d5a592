package resil

import (
	"fmt"

	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
)

// Assemble builds the global lattice of a completed recovery: every
// rank's block snapshot is placed at its global coordinates, producing
// a state indistinguishable from a gathered checkpoint at rec.Step.
// The supervisor hands the result to Options.Restore, so a hot-swapped
// world resumes with the world size preserved and at most the steps
// since the snapshot to replay.
func Assemble(rec *Recovery, gnx, gny, gnz int, tau, smag float64, force [3]float64) (*core.Lattice, error) {
	g, err := core.NewLattice(&lattice.D3Q19, gnx, gny, gnz, tau)
	if err != nil {
		return nil, fmt.Errorf("resil: assembling recovery lattice: %w", err)
	}
	g.Smagorinsky = smag
	g.Force = force
	for _, s := range rec.Blocks {
		if !s.Verify() {
			return nil, fmt.Errorf("resil: rank %d snapshot fails checksum at assembly", s.Rank)
		}
		if err := installBox(g, s, s.X0, s.Y0, s.Z0); err != nil {
			return nil, err
		}
	}
	g.SetStep(rec.Step)
	return g, nil
}
