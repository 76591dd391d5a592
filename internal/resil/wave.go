package resil

import (
	"slices"

	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/trace"
)

// Owned is one block a worker owns: its holder in the store (a rank of a
// rank world, a patch of a patch world), where it lies in the global
// lattice and the lattice that steps it. A rank owns one block; a patch
// worker owns its patches.
type Owned struct {
	ID    int
	Block decomp.Block
	Lat   *core.Lattice
	// rec is the block's L1 record of the wave in progress.
	rec *Snapshot
}

// Tag returns the tag of the wave message of one kind — L2, a buddy
// copy, or L3, a parity member — that carries holder h's record: one tag
// per holder and kind above a world's tag base.
func (st *Store) Tag(base int, kind Levels, h int) int {
	return base + (kind.index()-1)*st.ranks + h
}

// Wave runs worker c's share of one snapshot wave over the blocks it owns,
// at their lattices' step: L1 captures each block once, straight into its
// record, and that record feeds the other levels. L2 places a copy with
// the block's ring buddy, L3 folds into a replica the members of each
// parity group the worker does not keep. A copy or member bound for
// another worker travels as a message (Store.Send/Recv) under
// Tag(tags, level, holder); one bound for this worker is its record
// itself. owner is the replicated holder→worker map: the identity on a
// rank world, where every rank owns the one block it holds.
//
// A wave is a collective of the workers that own members of a parity
// group: they all call Wave at the same step. Receive errors (a peer
// dying mid-wave) are returned; the records being filled stay torn and
// the store's older generation stays intact for recovery.
//
// Per owned block the loops move record headers only; the payload passes
// are priced in captureBox, Pack and the parity algebra.
//
//lbm:hot traffic budget=80
func (st *Store) Wave(c *mpi.Comm, owner []int, owned []Owned, tags int, levels Levels) error {
	if st == nil || !levels.Memory() || len(owned) == 0 {
		return nil
	}
	step := owned[0].Lat.Step()
	end := c.Trace().Scope(trace.TrackCkpt, "snap-l1")
	for i := range owned {
		o := &owned[i]
		o.rec = st.Slot(L1, o.ID, step)
		Capture(o.rec, o.Lat, o.Block, o.ID)
		if levels.Has(L1) {
			st.Commit(L1, o.rec, step)
		}
	}
	end()
	var err error
	if levels.Has(L2) && st.groupSize >= 2 {
		err = st.buddies(c, owner, owned, tags, step)
	}
	if err == nil && levels.Has(L3) && st.groupSize >= 2 {
		err = st.parity(c, owner, owned, tags, levels, step)
	}
	if !levels.Has(L1) {
		for i := range owned {
			owned[i].rec.Step = -1 // fed L2/L3 only: the record stays torn
		}
	}
	return err
}

// buddies is the L2 half of a wave: a ring shift inside each parity
// group. A copy that stays on the worker is taken locally; one that
// arrives is adopted with its transport buffer, so the record's previous
// payload goes back to the pool first — that is the buffer this wave's
// sends pack into.
//
//lbm:hot traffic budget=80
func (st *Store) buddies(c *mpi.Comm, owner []int, owned []Owned, tags, step int) error {
	defer c.Trace().Scope(trace.TrackCkpt, "snap-l2")()
	me := c.Rank()
	for i := range owned {
		o := &owned[i]
		if owner[st.BuddySource(o.ID)] != me {
			st.Recycle(st.Slot(L2, o.ID, step))
		}
	}
	for i := range owned {
		o := &owned[i]
		if t := owner[st.Buddy(o.ID)]; t != me {
			st.Send(c, o.rec, t, st.Tag(tags, L2, o.ID))
		}
	}
	for i := range owned {
		h := owned[i].ID
		switch src := st.BuddySource(h); {
		case src == h: // singleton group: no buddy
		case owner[src] == me:
			st.deposit(L2, h, record(owned, src))
		default:
			b := st.Slot(L2, h, step)
			if err := st.Recv(c, b, owner[src], st.Tag(tags, L2, src), step); err != nil {
				return err
			}
			st.Commit(L2, b, step)
		}
	}
	return nil
}

// parity is the L3 half of a wave: for every parity group the worker owns
// members of, it folds the members its memory does not keep (see keeps)
// into the replica of its first member, and copies that replica for its
// other members, so every member one worker owns holds the same replica.
// Each member goes once to every other distinct owner of the group that
// folds it. A worker that keeps every member stores no replica — a group
// of two with L1 and L2 stores none. Groups are processed in ascending
// order on every worker and sends precede receives, which keeps the wave
// deadlock-free.
//
//lbm:hot traffic budget=16
func (st *Store) parity(c *mpi.Comm, owner []int, owned []Owned, tags int, levels Levels, step int) error {
	defer c.Trace().Scope(trace.TrackCkpt, "snap-l3")()
	me := c.Rank()
	// A received member is unpacked into in; a group's first received
	// member waits in held for the second. Neither outlives the call, so
	// they stay off the heap.
	var in, held Snapshot
	for lo := 0; lo < st.ranks; lo += st.groupSize {
		hi := min(lo+st.groupSize, st.ranks)
		first := slices.Index(owner[lo:hi], me) + lo // my first member of the group
		if hi-lo < 2 || first < lo {
			continue // singleton group (no parity algebra), or none of mine
		}
		for q := first; q < hi; q++ {
			if owner[q] != me {
				continue
			}
			for r := lo; r < hi; r++ {
				t := owner[r]
				if t == me || slices.Contains(owner[lo:r], t) || st.keeps(owner, levels, t, q) {
					continue
				}
				st.Send(c, record(owned, q), t, st.Tag(tags, L3, q))
			}
		}
		// Fold my own records plus one receive per remote member. The
		// first waits for the second, and the two are XORed straight into
		// the freshly reset replica.
		par := st.Slot(L3, first, step)
		ParityReset(par, first, -1, 0, 0)
		var pending *Snapshot
		for r := lo; r < hi; r++ {
			if st.keeps(owner, levels, me, r) {
				continue
			}
			m := record(owned, r)
			if owner[r] != me {
				m = &in
				if pending == nil {
					m = &held
				}
				if err := st.Recv(c, m, owner[r], st.Tag(tags, L3, r), step); err != nil {
					st.Recycle(&held)
					return err
				}
			}
			switch {
			case pending == nil:
				pending = m
				continue
			case len(par.folds) == 0:
				ParityAdd(par, pending, m)
			default:
				ParityAdd(par, m)
			}
			st.Recycle(&in)
		}
		if pending != nil && len(par.folds) == 0 { // one member alone
			ParityAdd(par, pending)
		}
		st.Recycle(&held)
		started := len(par.folds) > 0
		if started {
			st.Commit(L3, par, step)
		}
		for p := first + 1; p < hi; p++ {
			switch {
			case owner[p] != me:
			case !started:
				st.Slot(L3, p, step) // left unfilled: no replica
			default:
				st.deposit(L3, p, par)
			}
		}
	}
	return nil
}

// keeps reports whether worker w's memory holds holder q's record of the
// wave without a replica: q's own record when L1 is on and w owns q, q's
// buddy copy when L2 is on and w owns the holder of it.
func (st *Store) keeps(owner []int, levels Levels, w, q int) bool {
	return levels.Has(L1) && owner[q] == w ||
		levels.Has(L2) && owner[st.Buddy(q)] == w
}

// record returns the wave's L1 record of owned holder h.
func record(owned []Owned, h int) *Snapshot {
	for i := range owned {
		if owned[i].ID == h {
			return owned[i].rec
		}
	}
	return nil
}
