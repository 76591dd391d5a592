package psolve

// In-memory snapshot collective: the rank-side half of the multi-level
// checkpoint hierarchy in internal/resil. Every SnapshotEvery steps each
// rank captures its interior block (L1), pushes a copy to its ring buddy
// (L2) and exchanges snapshots within its parity group to XOR the
// members it does not keep into its parity replica (L3). The
// supervisor's Store plays the role of every rank's local memory and
// owns every record: a wave fills the records in place, so the payload
// leaves the lattice once, is packed once per peer into a recycled
// transport buffer, and costs the receiver nothing for L2 (the record
// adopts the buffer) and one XOR pass per folded member for L3. After a
// failure the supervisor decides from those records whether the loss is
// repairable without touching the L4 disk checkpoint.

import (
	"sunwaylb/internal/resil"
	"sunwaylb/internal/trace"
)

// Snapshot-exchange tags continue the face-exchange tag block.
const (
	tagSnapBuddy  = tagYMinus + 1
	tagSnapParity = tagYMinus + 2
)

// ResilCapture runs one snapshot wave: L1 capture, L2 buddy push/receive,
// L3 parity exchange — the levels selected by the mask. It is a
// group-wise collective: every rank of a parity group must call it at
// the same step, like a checkpoint gather. Receive errors (a peer dying
// mid-wave) are returned, failing the attempt; the records being filled
// stay torn and the store's older generation stays intact for recovery.
//
//lbm:hot
func (s *Solver) ResilCapture(st *resil.Store, levels resil.Levels) error {
	if st == nil || !levels.Memory() {
		return nil
	}
	me, step := s.Comm.Rank(), s.Lat.Step()

	// L1: gather the interior block straight into this rank's record. With
	// L1 off the payload still feeds this wave's L2/L3, but the record is
	// never committed and ends the wave torn.
	own := st.Slot(resil.L1, me, step)
	end := s.tr.Scope(trace.TrackCkpt, "snap-l1")
	resil.Capture(own, s.Lat, s.Block, me)
	end()
	if levels.Has(resil.L1) {
		st.Commit(resil.L1, own, step)
	}
	err := s.groupExchange(st, levels, own, step)
	if !levels.Has(resil.L1) {
		own.Step = -1
	}
	return err
}

// groupExchange runs the L2 and L3 halves of a wave inside the rank's
// parity group.
//
//lbm:hot
func (s *Solver) groupExchange(st *resil.Store, levels resil.Levels, own *resil.Snapshot, step int) error {
	me := s.Comm.Rank()
	lo, hi := st.Group(me)
	if hi-lo < 2 {
		return nil // singleton group: no buddy, no parity algebra
	}
	// L2: a ring shift inside the parity group. The record adopts the
	// received buffer, so its previous payload goes back to the pool
	// first — that is the buffer this wave's sends pack into.
	var buddy *resil.Snapshot
	if levels.Has(resil.L2) {
		end := s.tr.Scope(trace.TrackCkpt, "snap-l2")
		buddy = st.Slot(resil.L2, me, step)
		st.Recycle(buddy)
		st.Send(s.Comm, own, st.Buddy(me), tagSnapBuddy)
		err := st.Recv(s.Comm, buddy, st.BuddySource(me), tagSnapBuddy, step)
		end()
		if err != nil {
			return err
		}
		st.Commit(resil.L2, buddy, step)
	}
	if levels.Has(resil.L3) {
		return s.parityExchange(st, own, buddy, levels.Has(resil.L1), step, lo, hi)
	}
	return nil
}

// parityExchange is the L3 wave: every member XORs the group members
// whose records it does not keep straight into its own parity replica —
// every other member but its ring predecessor when L2 left that one's
// copy here (buddy != nil), plus its own record when L1 does not keep
// it. Sends are the same either way: a member ships to every other
// member but its buddy when L2 ran (one pack serves both levels). A
// member with nothing to fold — a group of two with L1 and L2 — computes
// and stores no replica. The loops here walk group members; the payload
// passes are priced in resil.
//
//lbm:hot traffic budget=0
func (s *Solver) parityExchange(st *resil.Store, own, buddy *resil.Snapshot, keepOwn bool, step, lo, hi int) error {
	defer s.tr.Scope(trace.TrackCkpt, "snap-l3")()
	me := s.Comm.Rank()
	for r := lo; r < hi; r++ {
		if r != me && (buddy == nil || r != st.Buddy(me)) {
			st.Send(s.Comm, own, r, tagSnapParity)
		}
	}
	// Fold the members kept nowhere here: the own record when L1 does not
	// keep it, then what arrives. The first waits for the second, and the
	// two are XORed straight into the freshly reset replica.
	p := st.Slot(resil.L3, me, step)
	var in, held resil.Snapshot // a received member; the first one, while it waits
	var pending *resil.Snapshot
	if !keepOwn {
		pending = own
	}
	started := false
	for r := lo; r < hi; r++ {
		if r == me || buddy != nil && r == st.BuddySource(me) {
			continue // the own record is pending or kept by L1, the buddy copy kept by L2
		}
		m := &in
		if pending == nil && !started {
			m = &held
		}
		if err := st.Recv(s.Comm, m, r, tagSnapParity, step); err != nil {
			st.Recycle(&held)
			return err
		}
		switch {
		case pending == nil && !started:
			pending = m
			continue
		case !started:
			resil.ParityReset(p, me, -1, len(own.Pops), len(own.Flags))
			resil.ParityAdd(p, pending, m)
			started = true
		default:
			resil.ParityAdd(p, m)
		}
		st.Recycle(&in)
	}
	if pending != nil && !started { // one member alone
		resil.ParityReset(p, me, -1, len(own.Pops), len(own.Flags))
		resil.ParityAdd(p, pending)
		started = true
	}
	st.Recycle(&held)
	if !started {
		return nil // the slot stays torn: no replica this wave
	}
	st.Commit(resil.L3, p, step)
	return nil
}
