package resil

import (
	"fmt"
	"math"
	"slices"

	"sunwaylb/internal/decomp"
)

// Parity algebra. A parity record is the bitwise XOR of the member
// snapshots folded into it, padded to the longest one (uneven
// decompositions give uneven blocks), and lists the members it folds.
// XOR is associative and its own inverse, so a folded member equals the
// parity XORed with every other folded member — one unknown per record,
// the RAID-5 guarantee. A holder's replica folds only the group members
// whose records the holder does not keep already (see Store): the XOR
// of the whole group is that replica XORed with the kept records, which
// live and die with it — and which it does not cover when they rot.

// ParityReset initialises p as an empty parity record for the given
// computing rank and step, with capacity for payloads up to n
// populations and m flags. The payload memory is not touched: the first
// members folded in overwrite it.
func ParityReset(p *Snapshot, rank, step, n, m int) {
	pops, flags, folds := p.Pops, p.Flags, p.folds
	*p = Snapshot{Rank: rank, Step: step, Pops: pops, Flags: flags, folds: folds[:0]}
	p.ensure(n, m)
	p.Pops, p.Flags = p.Pops[:0], p.Flags[:0]
}

// ParityAdd folds member snapshots into the parity record, growing the
// record to the longest payload seen, appends each member's Rank to the
// record's fold list, and stamps the record's checksum in the same pass
// — a record is sealed after every call. Into a freshly reset record the
// first two members are XORed directly (two reads and one write of the
// payload); every further member costs one more such pass.
func ParityAdd(p *Snapshot, members ...*Snapshot) {
	for len(members) > 0 {
		a := p
		if len(p.Pops) == 0 && len(p.Flags) == 0 && len(members) > 1 {
			a, members = members[0], members[1:]
		}
		b := members[0]
		members = members[1:]
		if a != p {
			p.members ^= a.Sum
			p.folds = append(p.folds, a.Rank)
		}
		p.members ^= b.Sum
		p.folds = append(p.folds, b.Rank)
		p.Q = b.Q
		// a may be p itself: keep its payload reachable across the resize.
		aPops, aFlags := a.Pops, a.Flags
		p.ensure(max(len(aPops), len(b.Pops)), max(len(aFlags), len(b.Flags)))
		d := newDigest()
		xorPadded(&d.pops, p.Pops, aPops, b.Pops)
		xorPaddedBytes(&d.flags, p.Flags, aFlags, b.Flags)
		p.Sum = d.sum(len(p.Pops), len(p.Flags))
	}
}

// xorPadded sets dst (as long as the longer operand) to a ⊕ b with the
// shorter one zero-extended, hashing dst as it goes; dst may alias a.
// The unpaired tail is copied and hashed a cache-sized block at a time.
func xorPadded(h *lanes, dst, a, b []float64) {
	if len(a) < len(b) {
		a, b = b, a
	}
	n := len(b)
	h.xor(dst[:n], a[:n], b)
	for n < len(dst) {
		e := min(n+2048, len(dst))
		copy(dst[n:e], a[n:e])
		h.write(dst[n:e])
		n = e
	}
}

// xorPaddedBytes is xorPadded for the flags (a 150th of the payload).
func xorPaddedBytes(h *lanes, dst, a, b []byte) {
	if len(a) < len(b) {
		a, b = b, a
	}
	copy(dst[len(b):], a[len(b):])
	for i, v := range b {
		dst[i] = a[i] ^ v
	}
	h.writeBytes(dst)
}

// Seal stamps the checksum of a record whose payload was written
// directly. ParityAdd seals on its own.
func Seal(p *Snapshot) { p.Sum = Checksum(p.Pops, p.Flags) }

// Reconstruct recovers the snapshot of the missing rank from a sealed
// parity record that folds it and the snapshots of every other member
// the record folds, in any order. The missing block's geometry comes
// from the decomposition table (the payload stores no geometry for a
// dead rank). dst is reused.
func Reconstruct(dst *Snapshot, parity *Snapshot, survivors []*Snapshot,
	missing int, b decomp.Block, q, step int) error {
	if !parity.Verify() {
		return fmt.Errorf("resil: parity record from rank %d fails checksum", parity.Rank)
	}
	if !slices.Contains(parity.folds, missing) || len(survivors) != len(parity.folds)-1 {
		return fmt.Errorf("resil: parity record from rank %d folds ranks %v, not rank %d plus %d survivors",
			parity.Rank, parity.folds, missing, len(survivors))
	}
	cells := b.NX * b.NY * b.NZ
	n := cells * q
	if n > len(parity.Pops) || cells > len(parity.Flags) {
		return fmt.Errorf("resil: parity payload (%d pops) shorter than missing block (%d)",
			len(parity.Pops), n)
	}
	for _, s := range survivors {
		if s.Rank == missing || !slices.Contains(parity.folds, s.Rank) {
			return fmt.Errorf("resil: survivor rank %d is not folded into the parity record from rank %d", s.Rank, parity.Rank)
		}
		if s.Step != step {
			return fmt.Errorf("resil: survivor rank %d snapshot at step %d, want %d", s.Rank, s.Step, step)
		}
		if !s.Verify() {
			return fmt.Errorf("resil: survivor rank %d snapshot fails checksum", s.Rank)
		}
	}
	// parity ⊕ survivors at full width, then truncate to the missing
	// block's size.
	want := parity.members
	for _, s := range survivors {
		want ^= s.Sum
	}
	ParityReset(dst, missing, step, len(parity.Pops), len(parity.Flags))
	ParityAdd(dst, append([]*Snapshot{parity}, survivors...)...)
	// Beyond the missing block's extent the XOR must cancel to zero;
	// a nonzero tail means the equation had more than one unknown.
	for _, v := range dst.Pops[n:] {
		if math.Float64bits(v) != 0 {
			return fmt.Errorf("resil: parity residue beyond missing block (multiple unknowns?)")
		}
	}
	dst.Pops = dst.Pops[:n]
	dst.Flags = dst.Flags[:cells]
	dst.members, dst.folds = 0, dst.folds[:0] // a block, no longer a parity record
	dst.Rank, dst.Step = missing, step
	dst.X0, dst.Y0, dst.Z0 = b.X0, b.Y0, b.Z0
	dst.NX, dst.NY, dst.NZ = b.NX, b.NY, b.NZ
	dst.Q = q
	Seal(dst)
	if dst.Sum != want {
		return fmt.Errorf("resil: reconstruction of rank %d does not match the checksum its owner sent (a member was corrupted in flight)", missing)
	}
	return nil
}
