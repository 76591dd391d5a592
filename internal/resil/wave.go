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
	// rec is the block's L1 record of the wave in progress and copies the
	// copies of it the wave makes (plan). Both belong to the owner.
	rec    *Snapshot
	copies []copyOut
}

// Tag returns the tag of the wave message of one kind — L2, a buddy
// copy, or L3, a parity member — that carries holder h's record: one tag
// per holder and kind above a world's tag base.
func (st *Store) Tag(base int, kind Levels, h int) int {
	return base + (kind.index()-1)*st.ranks + h
}

// copyOut is one copy of a record that a wave's capture writes row by
// row beside the record itself: the L2 buddy copy or an L3 parity member
// on its way to another worker — a message of transport buffers whose
// body the capture fills and whose trailer it stamps — or the L2 copy a
// same-worker holder keeps, written straight into that record (rec).
type copyOut struct {
	kind     Levels // L2 or L3
	dst, tag int    // a message's receiver and tag
	rec      *Snapshot
	pops     []float64 // body and trailer of a message, rec.Pops of a record
	flags    []byte
}

// Wave runs worker c's share of one snapshot wave over the blocks it owns,
// at their lattices' step. It gathers each block once, in one pass that
// fills the block's L1 record and every copy the wave makes of it (see
// plan): the L2 buddy copy — a message to the worker of the block's ring
// buddy, or that buddy's own L2 record when this worker owns it — and an
// L3 parity member for every other worker that folds the block into its
// replica. Messages travel under Tag(tags, level, holder) and leave
// after every capture: the L2 copies first, then the L3 members group by
// group, so a fault plan that counts messages sees one stream whatever
// fills them. owner is the replicated holder→worker
// map: the identity on a rank world, where every rank owns the one block
// it holds.
//
// A wave is a collective of the workers that own members of a parity
// group: they all call Wave at the same step. Receive errors (a peer
// dying mid-wave) are returned; the records being filled stay torn and
// the store's older generation stays intact for recovery.
//
// Per owned block the loops move record headers only; the payload passes
// are priced in captureBox and the parity algebra.
//
//lbm:hot traffic budget=104
func (st *Store) Wave(c *mpi.Comm, owner []int, owned []Owned, tags int, levels Levels) error {
	if st == nil || !levels.Memory() || len(owned) == 0 {
		return nil
	}
	step := owned[0].Lat.Step()
	me := c.Rank()
	end := c.Trace().Scope(trace.TrackCkpt, "snap-l1")
	// A buddy copy that arrives is adopted with its transport buffer, so
	// the record's previous payload goes back to the pool before any
	// capture takes one: it is the buffer this wave's copies are written
	// into, and taking first would grow the pool every wave.
	for i := range owned {
		if h := owned[i].ID; st.buddied(levels) && owner[st.BuddySource(h)] != me {
			st.Recycle(st.Slot(L2, h, step))
		}
	}
	for i := range owned {
		o := &owned[i]
		o.rec = st.Slot(L1, o.ID, step)
		q := o.Lat.Desc.Q
		st.plan(o, owner, me, tags, levels, step, o.Block.Cells()*q, o.Block.Cells(), q)
		captureBox(o.rec, o.Lat, o.Block, o.ID, 0, 0, 0, o.copies)
		if levels.Has(L1) {
			st.Commit(L1, o.rec, step)
		}
		for _, cp := range o.copies {
			if cp.rec != nil {
				st.Commit(L2, cp.rec, step)
			}
		}
	}
	end()
	var err error
	if st.buddied(levels) {
		err = st.buddies(c, owner, owned, tags, step)
	}
	if err == nil && levels.Has(L3) && st.groupSize >= 2 {
		err = st.parity(c, owner, owned, tags, levels, step)
	}
	for i := range owned {
		if !levels.Has(L1) {
			owned[i].rec.Step = -1 // fed L2/L3 only: the record stays torn
		}
		st.unsent(&owned[i]) // a wave cut short hands back what never left
	}
	return err
}

// buddied reports whether a wave of these levels makes L2 buddy copies.
func (st *Store) buddied(levels Levels) bool { return levels.Has(L2) && st.groupSize >= 2 }

// plan lists in o.copies the copies the wave makes of o's record, n
// populations and m flags of q per cell: its L2 buddy copy, then one L3
// member for each other owner in its group that neither keeps the record
// (keeps) nor was listed already — the order their sends go out in. A
// copy bound for another worker takes a transport buffer (take); the one
// that stays is the buddy's L2 record, taken torn from the store.
func (st *Store) plan(o *Owned, owner []int, me, tags int, levels Levels, step, n, m, q int) {
	h := o.ID
	o.copies = o.copies[:0]
	if st.buddied(levels) {
		switch b := st.Buddy(h); {
		case b == h: // singleton group: no buddy
		case owner[b] == me:
			r := st.Slot(L2, b, step)
			r.ensure(n, m)
			o.copies = append(o.copies, copyOut{kind: L2, rec: r, pops: r.Pops, flags: r.Flags})
		default:
			pops, flags := st.take(n, m, q)
			o.copies = append(o.copies, copyOut{kind: L2, dst: owner[b], tag: st.Tag(tags, L2, h), pops: pops, flags: flags})
		}
	}
	if levels.Has(L3) && st.groupSize >= 2 {
		lo, hi := st.Group(h)
		for r := lo; r < hi; r++ {
			t := owner[r]
			if t == me || slices.Contains(owner[lo:r], t) || st.keeps(owner, levels, t, h) {
				continue
			}
			pops, flags := st.take(n, m, q)
			o.copies = append(o.copies, copyOut{kind: L3, dst: t, tag: st.Tag(tags, L3, h), pops: pops, flags: flags})
		}
	}
}

// post sends o's wave messages of one kind, in plan order. A sent buffer
// belongs to its receiver, so the list lets go of it.
func (st *Store) post(c *mpi.Comm, o *Owned, kind Levels) {
	for i := range o.copies {
		if cp := &o.copies[i]; cp.kind == kind && cp.rec == nil && cp.pops != nil {
			c.Send(cp.dst, cp.tag, mpi.Message{Data: cp.pops, Aux: cp.flags})
			cp.pops, cp.flags = nil, nil
		}
	}
}

// unsent hands the transport buffers of o's messages that were never
// sent back to the pool and clears o's list.
func (st *Store) unsent(o *Owned) {
	for i := range o.copies {
		if cp := &o.copies[i]; cp.rec == nil && cp.pops != nil {
			st.put(cp.pops, cp.flags)
		}
	}
	clear(o.copies)
	o.copies = o.copies[:0]
}

// buddies is the L2 half of a wave after the captures: a ring shift
// inside each parity group. A copy bound for another worker is sent; one
// that arrives is adopted with its transport buffer into the record whose
// old payload the wave recycled before its captures. A copy that stays on
// the worker was written and committed by the capture.
//
//lbm:hot traffic budget=104
func (st *Store) buddies(c *mpi.Comm, owner []int, owned []Owned, tags, step int) error {
	defer c.Trace().Scope(trace.TrackCkpt, "snap-l2")()
	me := c.Rank()
	for i := range owned {
		st.post(c, &owned[i], L2)
	}
	for i := range owned {
		h := owned[i].ID
		if src := st.BuddySource(h); src != h && owner[src] != me {
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
			if owner[q] == me {
				st.post(c, find(owned, q), L3)
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
			var m *Snapshot
			if owner[r] == me {
				m = find(owned, r).rec
			} else {
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

// find returns owned holder h's entry.
func find(owned []Owned, h int) *Owned {
	for i := range owned {
		if owned[i].ID == h {
			return &owned[i]
		}
	}
	return nil
}
