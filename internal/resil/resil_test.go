package resil

import (
	"math"
	"testing"

	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
)

func TestParseLevelsRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Levels
	}{
		{"", 0},
		{"1", L1},
		{"12", L1 | L2},
		{"123", L1 | L2 | L3},
		{"1234", L1 | L2 | L3 | L4},
		{"4", L4},
		{"31", L1 | L3},
	}
	for _, c := range cases {
		got, err := ParseLevels(c.in)
		if err != nil {
			t.Fatalf("ParseLevels(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseLevels(%q) = %v, want %v", c.in, got, c.want)
		}
		if c.in != "" {
			back, err := ParseLevels(got.String())
			if err != nil || back != got {
				t.Errorf("String/Parse round trip of %q: got %v (%v)", c.in, back, err)
			}
		}
	}
	if _, err := ParseLevels("15"); err == nil {
		t.Error("ParseLevels(\"15\") accepted an invalid level")
	}
}

// testLattice builds a small lattice with distinctive populations.
func testLattice(t *testing.T, nx, ny, nz int) *core.Lattice {
	t.Helper()
	l, err := core.NewLattice(&lattice.D3Q19, nx, ny, nz, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	l.InitEquilibrium(1, 0.03, -0.01, 0.02)
	l.SetWall(0, 0, 0)
	l.PeriodicAll()
	l.StepFused()
	l.StepFused()
	return l
}

func TestCapturePackUnpackRoundTrip(t *testing.T) {
	l := testLattice(t, 4, 3, 5)
	b := decomp.Block{X0: 2, Y0: 1, Z0: 0, NX: 4, NY: 3, NZ: 5}
	var s Snapshot
	Capture(&s, l, b, 7)
	if s.Rank != 7 || s.Step != 2 || s.Q != 19 {
		t.Fatalf("capture header: rank=%d step=%d q=%d", s.Rank, s.Step, s.Q)
	}
	if !s.Verify() {
		t.Fatal("fresh capture fails Verify")
	}
	if got, want := len(s.Pops), 4*3*5*19; got != want {
		t.Fatalf("pops length %d, want %d", got, want)
	}

	data, aux := s.Pack(nil, nil)
	var u Snapshot
	if err := u.Unpack(data, aux); err != nil {
		t.Fatal(err)
	}
	if u.Rank != s.Rank || u.Step != s.Step || u.X0 != s.X0 || u.NX != s.NX || u.Sum != s.Sum {
		t.Fatalf("unpack header mismatch: %+v vs %+v", u, s)
	}
	for i := range s.Pops {
		if u.Pops[i] != s.Pops[i] {
			t.Fatalf("pops[%d] = %g, want %g", i, u.Pops[i], s.Pops[i])
		}
	}
	if !u.Verify() {
		t.Fatal("unpacked snapshot fails Verify")
	}
	// A flipped payload bit must fail verification.
	u.Pops[3] = math.Float64frombits(math.Float64bits(u.Pops[3]) ^ 1)
	if u.Verify() {
		t.Fatal("corrupted snapshot passes Verify")
	}
}

func TestCaptureSteadyStateAllocFree(t *testing.T) {
	l := testLattice(t, 6, 6, 6)
	b := decomp.Block{NX: 6, NY: 6, NZ: 6}
	var s Snapshot
	Capture(&s, l, b, 0) // sizing capture
	allocs := testing.AllocsPerRun(20, func() {
		Capture(&s, l, b, 0)
	})
	if allocs != 0 {
		t.Errorf("steady-state capture allocates %.1f times per run, want 0", allocs)
	}
}

// groupSnapshots captures nranks uneven blocks of a shared lattice.
func groupSnapshots(t *testing.T, l *core.Lattice, blocks []decomp.Block) []*Snapshot {
	t.Helper()
	out := make([]*Snapshot, len(blocks))
	for r, b := range blocks {
		// Each "rank" snapshots its own sub-block from a lattice of the
		// block's size, carved from the same global state for realism.
		sub, err := core.NewLattice(&lattice.D3Q19, b.NX, b.NY, b.NZ, l.Tau)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := l.Src(), sub.Src()
		for y := 0; y < b.NY; y++ {
			for x := 0; x < b.NX; x++ {
				for z := 0; z < b.NZ; z++ {
					gi := l.Idx(b.X0+x, b.Y0+y, b.Z0+z)
					li := sub.Idx(x, y, z)
					for q := 0; q < 19; q++ {
						dst[q*sub.N+li] = src[q*l.N+gi]
					}
					sub.Flags[li] = l.Flags[gi]
				}
			}
		}
		sub.SetStep(l.Step())
		out[r] = &Snapshot{}
		Capture(out[r], sub, b, r)
	}
	return out
}

func TestParityReconstructUnevenBlocks(t *testing.T) {
	l := testLattice(t, 7, 4, 3)
	// Uneven x split: 3 + 2 + 2 cells wide.
	blocks := []decomp.Block{
		{X0: 0, NX: 3, NY: 4, NZ: 3},
		{X0: 3, NX: 2, NY: 4, NZ: 3},
		{X0: 5, NX: 2, NY: 4, NZ: 3},
	}
	snaps := groupSnapshots(t, l, blocks)

	var p Snapshot
	ParityReset(&p, 0, l.Step(), 0, 0)
	for _, s := range snaps {
		ParityAdd(&p, s)
	}
	Seal(&p)
	if !p.Verify() {
		t.Fatal("sealed parity fails Verify")
	}

	for missing := range snaps {
		survivors := make([]*Snapshot, 0, 2)
		for r, s := range snaps {
			if r != missing {
				survivors = append(survivors, s)
			}
		}
		var out Snapshot
		if err := Reconstruct(&out, &p, survivors, missing, blocks[missing], 19, l.Step()); err != nil {
			t.Fatalf("reconstruct rank %d: %v", missing, err)
		}
		want := snaps[missing]
		if out.Sum != want.Sum || len(out.Pops) != len(want.Pops) {
			t.Fatalf("rank %d reconstruction checksum mismatch", missing)
		}
		for i := range want.Pops {
			if math.Float64bits(out.Pops[i]) != math.Float64bits(want.Pops[i]) {
				t.Fatalf("rank %d pops[%d] = %g, want %g", missing, i, out.Pops[i], want.Pops[i])
			}
		}
		for i := range want.Flags {
			if out.Flags[i] != want.Flags[i] {
				t.Fatalf("rank %d flags[%d] mismatch", missing, i)
			}
		}
	}
}

// storeFixture deposits a complete generation for 4 ranks in 2 groups
// of 2 and returns the store plus the per-rank snapshots.
func storeFixture(t *testing.T) (*Store, []*Snapshot, []decomp.Block) {
	t.Helper()
	return groupFixture(t, 2)
}

// groupFixture deposits a complete generation for 4 ranks in parity
// groups of the given size.
func groupFixture(t *testing.T, group int) (*Store, []*Snapshot, []decomp.Block) {
	t.Helper()
	l := testLattice(t, 8, 4, 3)
	blocks := []decomp.Block{
		{X0: 0, NX: 2, NY: 4, NZ: 3},
		{X0: 2, NX: 2, NY: 4, NZ: 3},
		{X0: 4, NX: 2, NY: 4, NZ: 3},
		{X0: 6, NX: 2, NY: 4, NZ: 3},
	}
	snaps := groupSnapshots(t, l, blocks)
	st, err := NewStore(4, group, blocks)
	if err != nil {
		t.Fatal(err)
	}
	depositAll(st, snaps)
	return st, snaps, blocks
}

// depositAll deposits a full L1+L2+L3 generation from the snapshots, as
// a wave would: each holder's replica folds the members of its group
// other than itself (kept by L1) and the one whose buddy copy it holds
// (kept by L2), and a holder with none left stores no replica.
func depositAll(st *Store, snaps []*Snapshot) {
	for _, s := range snaps {
		st.deposit(L1, s.Rank, s)
	}
	for r, s := range snaps {
		if b := st.Buddy(r); b != r {
			st.deposit(L2, b, s)
		}
	}
	for r := range snaps {
		lo, hi := st.Group(r)
		var p Snapshot
		ParityReset(&p, r, snaps[r].Step, 0, 0)
		for m := lo; m < hi; m++ {
			if m != r && m != st.BuddySource(r) {
				ParityAdd(&p, snaps[m])
			}
		}
		if len(p.folds) > 0 {
			st.deposit(L3, r, &p)
		}
	}
}

func TestStoreBuddyRecovery(t *testing.T) {
	st, snaps, _ := storeFixture(t)
	rec, ok := st.RecoveryPlan([]int{1})
	if !ok {
		t.Fatal("single death in a buddied group must be recoverable")
	}
	if rec.BuddyRestores != 1 || rec.Reconstructions != 0 {
		t.Fatalf("restores: buddy=%d parity=%d, want 1/0", rec.BuddyRestores, rec.Reconstructions)
	}
	if rec.Blocks[1].Sum != snaps[1].Sum {
		t.Fatal("buddy-restored block differs from the original")
	}
}

func TestStoreParityRecoveryWhenBuddyCorrupt(t *testing.T) {
	st, snaps, _ := groupFixture(t, 4)
	// Corrupt the buddy copy of rank 1 (held by rank 2): the plan must
	// detect the checksum failure and fall through to parity — rank 0's
	// replica folds ranks 1 and 2, rank 3's ranks 0 and 1.
	st.mu.Lock()
	g := &st.gen[0]
	g.recs[1][2].Pops[0] = math.Float64frombits(math.Float64bits(g.recs[1][2].Pops[0]) ^ 4)
	st.mu.Unlock()

	rec, ok := st.RecoveryPlan([]int{1})
	if !ok {
		t.Fatal("parity must cover a corrupted buddy copy")
	}
	if rec.Reconstructions != 1 {
		t.Fatalf("reconstructions = %d, want 1", rec.Reconstructions)
	}
	if rec.Blocks[1].Sum != snaps[1].Sum {
		t.Fatal("parity-reconstructed block differs from the original")
	}
}

// A pair with L1 and L2 keeps both members and stores no replica, so a
// buddy copy that rots in its holder's memory has no parity behind it:
// the death of the rank it copies escalates. A full-group replica folded
// from the clean copy would have repaired it.
func TestStorePairRottedBuddyCopyEscalates(t *testing.T) {
	st, _, _ := storeFixture(t)
	st.mu.Lock()
	g := &st.gen[0]
	g.recs[1][0].Pops[0] = math.Float64frombits(math.Float64bits(g.recs[1][0].Pops[0]) ^ 4)
	st.mu.Unlock()
	if _, ok := st.RecoveryPlan([]int{1}); ok {
		t.Fatal("a pair with a rotted buddy copy has no replica to repair the copied rank from")
	}
	if _, ok := st.RecoveryPlan([]int{3}); !ok {
		t.Fatal("group {2,3} must still be recoverable")
	}
}

func TestStoreOneDeathPerGroup(t *testing.T) {
	st, snaps, _ := storeFixture(t)
	rec, ok := st.RecoveryPlan([]int{1, 2})
	if !ok {
		t.Fatal("one death per parity group must be recoverable")
	}
	for _, d := range []int{1, 2} {
		if rec.Blocks[d].Sum != snaps[d].Sum {
			t.Fatalf("rank %d block differs from the original", d)
		}
	}
	if rec.BuddyRestores != 2 {
		t.Fatalf("buddy restores = %d, want 2 (both partners alive)", rec.BuddyRestores)
	}
}

func TestStoreTwoDeathsOneGroupEscalates(t *testing.T) {
	st, _, _ := storeFixture(t)
	// Ranks 0 and 1 are a buddy pair: both L2 copies die with them and
	// the group parity has two unknowns. Must escalate.
	if _, ok := st.RecoveryPlan([]int{0, 1}); ok {
		t.Fatal("two deaths in one parity group must escalate to L4")
	}
}

func TestStoreTornGenerationFallsBack(t *testing.T) {
	st, snaps, _ := storeFixture(t)
	// A newer, torn generation: only ranks 0 and 1 deposited.
	newer := make([]*Snapshot, len(snaps))
	for r, s := range snaps {
		c := &Snapshot{}
		c.CopyFrom(s)
		c.Step = s.Step + 5
		c.Sum = Checksum(c.Pops, c.Flags)
		newer[r] = c
	}
	st.deposit(L1, newer[0].Rank, newer[0])
	st.deposit(L1, newer[1].Rank, newer[1])

	rec, ok := st.RecoveryPlan([]int{2})
	if !ok {
		t.Fatal("fallback to the previous complete generation failed")
	}
	if rec.Step != snaps[0].Step {
		t.Fatalf("recovered at step %d, want the older complete step %d", rec.Step, snaps[0].Step)
	}
}

func TestStoreBuddyChainInGroup(t *testing.T) {
	// One group of 4: ring buddies 0→1→2→3→0. Kill 1 and 3 (not a
	// buddy pair): 1's copy is on 2 (alive), 3's copy is on 0 (alive).
	st, snaps, _ := groupFixture(t, 4)
	rec, ok := st.RecoveryPlan([]int{1, 3})
	if !ok {
		t.Fatal("two non-adjacent deaths in a 4-group with L2 must be recoverable")
	}
	if rec.BuddyRestores != 2 {
		t.Fatalf("buddy restores = %d, want 2", rec.BuddyRestores)
	}
	// Kill a buddy pair (2,3): 3's copy on 0 survives; 2's copy died
	// with 3 — rank 0's replica, which folds ranks 1 and 2, has one
	// unknown left after the L2 restore.
	rec2, ok := st.RecoveryPlan([]int{2, 3})
	if !ok {
		t.Fatal("buddy-chain + parity must recover an adjacent pair in a 4-group")
	}
	if rec2.BuddyRestores != 1 || rec2.Reconstructions != 1 {
		t.Fatalf("restores: buddy=%d parity=%d, want 1/1", rec2.BuddyRestores, rec2.Reconstructions)
	}
	for _, d := range []int{2, 3} {
		if rec2.Blocks[d].Sum != snaps[d].Sum {
			t.Fatalf("rank %d block differs from the original", d)
		}
	}
}

func TestStoreInvalidate(t *testing.T) {
	st, _, _ := storeFixture(t)
	st.Invalidate([]int{0})
	// Rank 0's memory is gone: rank 1's buddy copy (held by 0) and
	// rank 0's own snapshot are unavailable. The pair keeps both members
	// and stores no replica, so a death of rank 1 must escalate.
	if _, ok := st.RecoveryPlan([]int{1}); ok {
		t.Fatal("death of rank 1 after rank 0's memory loss must escalate")
	}
	// A different group is untouched.
	if _, ok := st.RecoveryPlan([]int{3}); !ok {
		t.Fatal("group {2,3} must still be recoverable")
	}
}

func TestAssembleMatchesOriginal(t *testing.T) {
	l := testLattice(t, 6, 4, 3)
	blocks := []decomp.Block{
		{X0: 0, NX: 3, NY: 4, NZ: 3},
		{X0: 3, NX: 3, NY: 4, NZ: 3},
	}
	snaps := groupSnapshots(t, l, blocks)
	rec := &Recovery{Step: l.Step(), Blocks: map[int]*Snapshot{0: snaps[0], 1: snaps[1]}}
	g, err := Assemble(rec, 6, 4, 3, l.Tau, l.Smagorinsky, l.Force)
	if err != nil {
		t.Fatal(err)
	}
	if g.Step() != l.Step() {
		t.Fatalf("assembled step %d, want %d", g.Step(), l.Step())
	}
	gsrc, lsrc := g.Src(), l.Src()
	for y := 0; y < 4; y++ {
		for x := 0; x < 6; x++ {
			for z := 0; z < 3; z++ {
				gi, li := g.Idx(x, y, z), l.Idx(x, y, z)
				if g.Flags[gi] != l.Flags[li] {
					t.Fatalf("flags differ at %d,%d,%d", x, y, z)
				}
				for q := 0; q < 19; q++ {
					if math.Float64bits(gsrc[q*g.N+gi]) != math.Float64bits(lsrc[q*l.N+li]) {
						t.Fatalf("pops differ at %d,%d,%d q=%d", x, y, z, q)
					}
				}
			}
		}
	}
}

func TestStoreBytesLedger(t *testing.T) {
	st, snaps, _ := storeFixture(t)
	b := st.Bytes()
	per := snaps[0].PayloadBytes()
	if b[0] != 4*per {
		t.Errorf("L1 bytes = %d, want %d", b[0], 4*per)
	}
	if b[1] != 4*per {
		t.Errorf("L2 bytes = %d, want %d", b[1], 4*per)
	}
	if b[2] != 0 || b[3] != 0 {
		t.Errorf("L3/L4 bytes = %d/%d, want 0/0: pairs keep both members and store no replica", b[2], b[3])
	}
	st.AccountDisk(123)
	if st.Bytes()[3] != 123 {
		t.Error("AccountDisk not reflected in ledger")
	}
	// In a group of four every replica folds the two members its holder
	// does not keep: four replicas of two equal blocks weigh as much as L1.
	st4, _, _ := groupFixture(t, 4)
	if b := st4.Bytes(); b[2] != 4*per {
		t.Errorf("group of 4: L3 bytes = %d, want %d", b[2], 4*per)
	}
}
