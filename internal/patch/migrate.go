package patch

import (
	"fmt"
	"slices"

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
		resil.Capture(&n.snap, n.lats[p], n.til.Patches[p].Block, p)
		data, aux := n.snap.Pack(n.snap.Pops, n.snap.Flags)
		n.snap = resil.Snapshot{}
		n.c.Send(newOwner[p], n.til.migTag(p), mpi.Message{Data: data, Aux: aux})
		delete(n.lats, p)
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
	n.rebuildMine()
	clear(n.links) // rebuilt towards the new owners, flags on their first message
	n.flagsDue = true
	if n.me == 0 {
		n.w.stats.Rebalances++
		n.w.stats.Migrations += moves
	}
	return nil
}

// wave runs one snapshot wave over the owned patches: each patch is
// captured once, straight into its L1 record, and that record feeds the
// other levels — L2 places a copy with the patch's ring buddy, L3 folds
// the XOR parity of the group members each owner does not keep. The
// store is keyed by patch ID — a record "held by" patch p lives in p's
// current owner's memory, so the supervisor invalidates exactly the
// patches a dead worker owned at the wave (see supervise.go).
//
// Per owned patch the loop itself moves record headers only; the payload
// passes are priced in resil and core.
//
//lbm:hot traffic budget=80
func (n *node) wave(done int, st *resil.Store, levels resil.Levels) error {
	defer n.tr.Scope(trace.TrackCkpt, "patch-wave")()
	for _, p := range n.mine {
		own := st.Slot(resil.L1, p, done)
		resil.Capture(own, n.lats[p], n.til.Patches[p].Block, p)
		n.own[p] = own
		if levels.Has(resil.L1) {
			st.Commit(resil.L1, own, done)
		}
		if levels.Has(resil.L2) {
			if b := st.Buddy(p); b != p {
				st.DepositBuddy(b, own)
			}
		}
	}
	var err error
	if levels.Has(resil.L3) && st.GroupSize() >= 2 {
		err = n.parityWave(done, st, levels)
	}
	if !levels.Has(resil.L1) {
		for _, p := range n.mine {
			n.own[p].Step = -1 // fed L2/L3 only: the record stays torn
		}
	}
	return err
}

// parityWave computes, for every parity group this worker owns patches
// in, the L3 replica of the group members its memory does not keep (see
// keeps), from the records wave just captured. Members owned by other
// workers are exchanged over mpi: each owner sends its members once to
// every other distinct owner of the group that folds them, folds its
// share into the parity record of its first member and copies that
// record for its other members, so every member patch of one owner holds
// the identical replica. An owner that keeps every member stores no
// replica. Groups are processed in ascending order on every rank and
// sends always precede receives, which keeps the wave deadlock-free.
//
//lbm:hot traffic budget=16
func (n *node) parityWave(done int, st *resil.Store, levels resil.Levels) error {
	P := n.til.P()
	gs := st.GroupSize()
	for lo := 0; lo < P; lo += gs {
		hi := min(lo+gs, P)
		first := -1 // my first member of the group
		for p := hi - 1; p >= lo; p-- {
			if n.owner[p] == n.me {
				first = p
			}
		}
		if hi-lo < 2 || first < 0 {
			continue // singleton group (no parity algebra), or none of mine
		}
		// Ship my members once to each other distinct owner that folds them.
		for q := lo; q < hi; q++ {
			if n.owner[q] != n.me {
				continue
			}
			for r := lo; r < hi; r++ {
				t := n.owner[r]
				if t == n.me || slices.Contains(n.owner[lo:r], t) || n.keeps(t, q, st, levels) {
					continue
				}
				st.Send(n.c, n.own[q], t, n.til.parityTag(q))
			}
		}
		// Fold the members I do not keep: my own records plus one receive
		// per remote member. The first waits for the second, and the two
		// are XORed straight into the freshly reset replica.
		par := st.Slot(resil.L3, first, done)
		var pending *resil.Snapshot
		started := false
		for r := lo; r < hi; r++ {
			if n.keeps(n.me, r, st, levels) {
				continue
			}
			m := n.own[r]
			if n.owner[r] != n.me {
				m = &n.in
				if pending == nil && !started {
					m = &n.held
				}
				if err := st.Recv(n.c, m, n.owner[r], n.til.parityTag(r), done); err != nil {
					st.Recycle(&n.held)
					return err
				}
			}
			switch {
			case pending == nil && !started:
				pending = m
				continue
			case !started:
				resil.ParityReset(par, first, -1, len(n.own[first].Pops), len(n.own[first].Flags))
				resil.ParityAdd(par, pending, m)
				started = true
			default:
				resil.ParityAdd(par, m)
			}
			st.Recycle(&n.in)
		}
		if pending != nil && !started { // one member alone
			resil.ParityReset(par, first, -1, len(n.own[first].Pops), len(n.own[first].Flags))
			resil.ParityAdd(par, pending)
			started = true
		}
		st.Recycle(&n.held)
		if started {
			st.Commit(resil.L3, par, done)
		}
		for p := first + 1; p < hi; p++ {
			switch {
			case n.owner[p] != n.me:
			case !started:
				st.Slot(resil.L3, p, done) // left unfilled: no replica
			default:
				st.DepositParity(p, par)
			}
		}
	}
	return nil
}

// keeps reports whether worker w's memory holds patch q's record of the
// wave without a replica: q's own record when L1 is on and w owns q, q's
// buddy copy when L2 is on and w owns the patch holding it.
func (n *node) keeps(w, q int, st *resil.Store, levels resil.Levels) bool {
	return levels.Has(resil.L1) && n.owner[q] == w ||
		levels.Has(resil.L2) && n.owner[st.Buddy(q)] == w
}
