// Package resil is the multi-level in-memory checkpoint hierarchy that
// turns single-rank loss from a full rollback into a local repair. The
// flat disk-checkpoint model of the §IV-B controller (psolve's PR-1
// supervisor) is the wrong recovery path for the common failure at the
// paper's 160 000-process scale: one dead rank should cost the fleet at
// most the steps since the last in-memory snapshot, not a global
// teardown plus a disk restore. Following exascale LBM practice (Holzer
// et al.) and the buddy/parity checkpointing used by production
// training stacks, resil layers four levels:
//
//	L1  per-rank in-memory snapshot of the rank's own subdomain
//	    (survives everything except the rank's own death)
//	L2  buddy copy: the snapshot is pushed to the ring-next partner
//	    inside the rank's parity group over internal/mpi (survives the
//	    owner's death as long as the buddy lives); a patch's copy
//	    travels the same way, and is a local copy only when one worker
//	    owns both patches
//	L3  XOR parity: every member of a parity group holds the bitwise
//	    XOR of the group's snapshots it does not already keep as its
//	    own L1 record or its L2 buddy copy, so any single loss per
//	    group is reconstructible from the survivors (RAID-5 style,
//	    with the parity replicated instead of rotated — in simulation
//	    the memory is cheap and it removes the "parity holder died"
//	    special case); a group of two with L1 and L2 keeps every
//	    member already and holds no parity
//	L4  the CRC-verified swio disk checkpoint — the last resort,
//	    owned by the supervisor, not by this package
//
// The Store is the supervisor-side ledger of who holds what: it is
// "each rank's local memory" in the simulated machine, so when a rank
// dies every entry that rank held (its own L1, the buddy copies it
// stored for its partner, its parity replica) becomes unavailable —
// together, which is why a replica need not repeat what the other two
// hold.
//
// RecoveryPlan walks the generations newest-first and decides whether
// the dead set is repairable purely from memory — L2 first, then L3,
// resolving buddy chains and cross-feeding L2-recovered blocks into the
// parity equations — or whether the failure must escalate to L4.
//
// Every snapshot carries a checksum that detects any single flipped bit
// (checksum.go), so a bit-flipped buddy push (the fault injector
// corrupts user-tag messages) is detected at use time and falls through
// to the next level instead of silently restoring garbage; a parity
// record also remembers its members' checksums, so a member corrupted on
// its way into the XOR is caught at reconstruction.
package resil

import (
	"fmt"
	"strings"
)

// Levels is a bitmask of enabled checkpoint levels.
type Levels uint8

// The four checkpoint levels, ordered cheapest-first.
const (
	// L1 keeps a per-rank snapshot in the rank's own memory.
	L1 Levels = 1 << iota
	// L2 pushes a copy of the snapshot to the ring-next buddy rank.
	L2
	// L3 keeps on every group member the XOR parity of the members it
	// does not keep at L1 or L2.
	L3
	// L4 is the supervisor's CRC-verified disk checkpoint path.
	L4
)

// Memory reports whether any in-memory level (L1–L3) is enabled.
func (l Levels) Memory() bool { return l&(L1|L2|L3) != 0 }

// Has reports whether every level in q is enabled.
func (l Levels) Has(q Levels) bool { return l&q == q }

// String renders the mask in the "1234" CLI form.
func (l Levels) String() string {
	var b strings.Builder
	for i, lv := range []Levels{L1, L2, L3, L4} {
		if l&lv != 0 {
			fmt.Fprintf(&b, "%d", i+1)
		}
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// ParseLevels decodes the "1234"-style level mask of the -ckpt-levels
// flag: each digit enables one level, order and repetition are
// irrelevant. The empty string parses to 0 (caller applies defaults).
func ParseLevels(s string) (Levels, error) {
	var l Levels
	for _, r := range strings.TrimSpace(s) {
		switch r {
		case '1':
			l |= L1
		case '2':
			l |= L2
		case '3':
			l |= L3
		case '4':
			l |= L4
		default:
			return 0, fmt.Errorf("resil: bad level %q in %q (want digits 1-4)", string(r), s)
		}
	}
	return l, nil
}
