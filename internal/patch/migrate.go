package patch

import (
	"fmt"

	"sunwaylb/internal/mpi"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/trace"
)

// migrate executes an adopted plan: every moving patch is serialized as
// a checksummed interior snapshot on its old owner, shipped, verified
// and reinstalled on its new owner, and the replicated owner map flips.
// All sends are posted before any receive, so any permutation of owners
// is deadlock-free. Migration happens at a step boundary, before the
// next z exchange, so the freshly installed lattice's halos are rebuilt
// from current interior state before its kernel reads them — migrated
// runs are bit-identical to pinned ones.
func (n *node) migrate(newOwner []int) error {
	moves := 0
	for p := range newOwner {
		if n.owner[p] == newOwner[p] {
			continue
		}
		moves++
		if n.owner[p] != n.me {
			continue
		}
		// The capture buffer itself travels: ownership passes to the
		// receiver, which keeps it for its own next send.
		resil.Capture(&n.snap, n.blocks[p].Lat, n.til.Patches[p].Block, p)
		data, aux := n.snap.Pack(n.snap.Pops, n.snap.Flags)
		n.snap = resil.Snapshot{}
		n.c.Send(newOwner[p], n.til.migTag(p), mpi.Message{Data: data, Aux: aux})
		n.blocks[p] = nil
		delete(n.devs, p)
		if n.tr != nil {
			n.tr.InstantV(trace.Wall, trace.TrackPatch, "migrate-out", n.tr.Now(), float64(p))
		}
	}
	for p := range newOwner {
		if n.owner[p] == newOwner[p] || newOwner[p] != n.me {
			continue
		}
		m := n.c.Recv(n.owner[p], n.til.migTag(p))
		if err := n.snap.Unpack(m.Data, m.Aux); err != nil {
			return fmt.Errorf("patch: migrating patch %d to worker %d: %w", p, n.me, err)
		}
		if err := n.installPatch(p, &n.snap); err != nil {
			return err
		}
		if n.tr != nil {
			n.tr.InstantV(trace.Wall, trace.TrackPatch, "migrate-in", n.tr.Now(), float64(p))
		}
	}
	copy(n.owner, newOwner)
	n.rebuildOwned() // new links and copies towards the new owners, flags on their first step
	if n.me == 0 {
		n.w.stats.Rebalances++
		n.w.stats.Migrations += moves
	}
	return nil
}
