package resil

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/mpi"
)

// Store is the supervisor-side ledger of the in-memory checkpoint
// hierarchy: it models each rank's local memory in the simulated
// machine and owns the memory of every record. Ranks fill their own L1
// records, the L2 buddy copies they received and the L3 parity replicas
// they computed in place (Slot, then Commit); the supervisor consults
// RecoveryPlan after a failure to decide whether the dead set is
// repairable from memory or must escalate to the disk path. Two
// generations are double-buffered so a failure mid-capture still finds
// the previous complete generation.
//
// A holder's L3 replica folds only the members of its group whose
// records the holder's owner does not keep already: its own record when
// L1 is on, the buddy copy it holds when L2 is on (in the patch world,
// those of every patch the same worker owns). The whole group's XOR is
// the replica XORed with those kept records, which live and die with the
// replica, so a surviving owner holds what a full-group replica would
// give it — while its kept records stay sound. A kept record that rots in
// memory after the wave (fails Verify while its holder lives) is covered
// only by other members' replicas that fold it: a full-group replica of
// its own holder, folded from the clean copy, no longer exists. A group
// of two with L1 and L2 keeps both members and has no replica at all, so
// there a rotted buddy copy leaves the rank it copies without L3 cover.
//
// All methods are safe for concurrent use by rank goroutines. The mutex
// covers record lookup and the ledger, not the payloads: between Slot
// and Commit a record belongs to the one rank that holds it, and
// recovery plans read records only when no rank is writing their
// generation — after the world has been torn down, or behind a barrier
// while the next wave fills the other generation.
type Store struct {
	mu        sync.Mutex
	ranks     int
	groupSize int
	blocks    []decomp.Block

	gen [2]generation // double-buffered: a new step overwrites the older

	// wire holds transport buffers between waves: what one receiver
	// hands back is what the next capture copies into. Each is made for
	// the largest block (maxCells cells), so any buffer serves any record.
	wire     []wireBuf
	maxCells int

	bytes [4]int64 // cumulative deposited bytes per level (L1..L4)
}

// generation is one snapshot wave at a single step boundary. Every
// holder has one record per in-memory level: recs[0] is L1 (rank → its own
// snapshot), recs[1] L2 (holder → copy of ring-prev's snapshot), recs[2]
// L3 (holder → parity replica of the members it does not keep). A record
// whose Step differs from the generation's is empty, stale or torn.
type generation struct {
	step int // -1 = empty
	recs [3][]Snapshot
}

// index maps an in-memory level to its record and ledger slot.
func (l Levels) index() int { return bits.TrailingZeros8(uint8(l)) }

type wireBuf struct {
	data []float64
	aux  []byte
}

// NewStore builds a store for a world of the given size, parity-group
// size and decomposition table (blocks[r] is rank r's subdomain). It
// allocates the record headers only; payload memory is sized by the
// first wave that fills a record and reused from then on.
func NewStore(ranks, groupSize int, blocks []decomp.Block) (*Store, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("resil: store needs ≥ 1 rank, got %d", ranks)
	}
	if groupSize < 1 {
		return nil, fmt.Errorf("resil: group size %d < 1", groupSize)
	}
	if len(blocks) != ranks {
		return nil, fmt.Errorf("resil: %d blocks for %d ranks", len(blocks), ranks)
	}
	// The free list is sized for the messages a wave has in flight (at
	// most groupSize per rank): the ranks' interleaving, not the wave
	// count, decides when it peaks, and a steady-state peak must not
	// allocate.
	st := &Store{ranks: ranks, groupSize: groupSize, blocks: blocks,
		wire: make([]wireBuf, 0, ranks*groupSize)}
	for _, b := range blocks {
		st.maxCells = max(st.maxCells, b.Cells())
	}
	for i := range st.gen {
		st.gen[i].step = -1
		for lv := range st.gen[i].recs {
			recs := make([]Snapshot, ranks)
			for r := range recs {
				recs[r].Step = -1
			}
			st.gen[i].recs[lv] = recs
		}
	}
	return st, nil
}

// Group returns the rank interval [lo, hi) of the parity group
// containing rank r.
func (st *Store) Group(r int) (lo, hi int) {
	lo = (r / st.groupSize) * st.groupSize
	return lo, min(lo+st.groupSize, st.ranks)
}

// Buddy returns the ring-next member of r's group — the rank that holds
// r's L2 copy. Returns r itself for a singleton group (no buddy).
func (st *Store) Buddy(r int) int { return st.ring(r, 1) }

// BuddySource returns the rank whose L2 copy rank r holds (ring-prev).
func (st *Store) BuddySource(r int) int { return st.ring(r, -1) }

func (st *Store) ring(r, d int) int {
	lo, hi := st.Group(r)
	return lo + (r-lo+d+hi-lo)%(hi-lo)
}

// genFor returns the generation receiving deposits for step: the one
// already at that step, else the older of the two, which the new step
// overwrites. Callers hold st.mu.
func (st *Store) genFor(step int) *generation {
	older := &st.gen[0]
	for i := range st.gen {
		if st.gen[i].step == step {
			return &st.gen[i]
		}
		if st.gen[i].step < older.step {
			older = &st.gen[i]
		}
	}
	older.step = step
	return older
}

// Slot returns holder's record at one in-memory level (L1, L2 or L3) in
// the generation receiving step, marked torn (Step −1) until Commit. The
// caller fills the record's payload in place, outside the store's lock:
// a rank that dies mid-fill leaves a record no recovery plan accepts. A
// holder with nothing to record at a level takes its slot and leaves it
// unfilled, so no record of an earlier run at the same step survives.
func (st *Store) Slot(lv Levels, holder, step int) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := &st.genFor(step).recs[lv.index()][holder]
	s.Step = -1
	return s
}

// Commit publishes a filled record: it stamps the step — the header
// word plans check first, written last — and enters the payload in the
// byte ledger.
func (st *Store) Commit(lv Levels, s *Snapshot, step int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s.Step = step
	st.bytes[lv.index()] += s.PayloadBytes()
}

// deposit copies src into holder's record of src's generation.
func (st *Store) deposit(lv Levels, holder int, src *Snapshot) {
	step := src.Step
	dst := st.Slot(lv, holder, step)
	if dst != src { // Reseed hands the store its own records back
		dst.CopyFrom(src)
	}
	st.Commit(lv, dst, step)
}

// take hands out transport buffers for a message of n populations and m
// flags of q per cell, sized to it: the newest free buffer that holds the
// message, or else a new one made for the largest block by core.Alloc,
// with only the prefix this message fills faulted in. The transport
// passes references and the fault hook may flip bits in place, so a
// message never shares memory with a record. On uneven blocks records
// come in several sizes; a buffer too small for one stays free for the
// records it fits, and since every buffer made here fits every record,
// the pool stops growing once it covers a wave's peak, as it does on
// equal blocks.
func (st *Store) take(n, m, q int) ([]float64, []byte) {
	st.mu.Lock()
	for i := len(st.wire) - 1; i >= 0; i-- {
		if b := st.wire[i]; cap(b.data) >= n+packTrailer && cap(b.aux) >= m {
			st.wire = slices.Delete(st.wire, i, i+1)
			st.mu.Unlock()
			return b.data[:n+packTrailer], b.aux[:m]
		}
	}
	st.mu.Unlock()
	cells := max(st.maxCells, m)
	return core.Alloc[float64](n+packTrailer, cells*q+packTrailer), core.Alloc[byte](m, cells)
}

// Recv receives src's snapshot of the wave at step into dst, which adopts
// the transport buffer (hand it back with Recycle, unless dst is a record
// that keeps it). A duplicated message of an earlier wave is still queued
// ahead of this wave's: anything older than step is discarded.
func (st *Store) Recv(c *mpi.Comm, dst *Snapshot, src, tag, step int) error {
	for {
		m, err := c.RecvE(src, tag)
		if err != nil {
			return fmt.Errorf("resil: snapshot wave at step %d: %w", step, err)
		}
		if err := dst.Unpack(m.Data, m.Aux); err != nil {
			return err
		}
		if dst.Step >= step {
			return nil
		}
		st.Recycle(dst)
	}
}

// Recycle takes back the transport buffer a snapshot adopted — after a
// receiver folded it, or before a record adopts the next one — and leaves
// the snapshot without payload.
func (st *Store) Recycle(s *Snapshot) {
	st.put(s.Pops, s.Flags)
	s.Pops, s.Flags = nil, nil
}

// put returns a transport buffer to the pool.
func (st *Store) put(data []float64, aux []byte) {
	if cap(data) > 0 {
		st.mu.Lock()
		st.wire = append(st.wire, wireBuf{data, aux})
		st.mu.Unlock()
	}
}

// Resident returns the payload memory the store holds: every record of
// both generations plus the free transport buffers. Nothing is released
// before the store itself, so this is also its high-water mark.
func (st *Store) Resident() int64 {
	lv, wire := st.ResidentByLevel()
	return lv[0] + lv[1] + lv[2] + wire
}

// ResidentByLevel splits Resident into the records of each in-memory
// level (L1, L2, L3) and the free transport buffers.
func (st *Store) ResidentByLevel() (levels [3]int64, wire int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range st.gen {
		for lv, recs := range st.gen[i].recs {
			for j := range recs {
				levels[lv] += int64(8*cap(recs[j].Pops) + cap(recs[j].Flags))
			}
		}
	}
	for _, w := range st.wire {
		wire += int64(8*cap(w.data) + cap(w.aux))
	}
	return levels, wire
}

// AccountDisk adds an L4 (disk) checkpoint write to the byte ledger.
func (st *Store) AccountDisk(n int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.bytes[3] += n
}

// Bytes returns the cumulative deposited bytes per level (L1..L4).
func (st *Store) Bytes() [4]int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytes
}

// Invalidate wipes every entry held by the given ranks — called after a
// hot swap, when the dead ranks' memory (their own L1, the buddy copies
// and parity replicas they stored) is gone for good. The buffers stay
// with the store for the replacement rank's next wave.
func (st *Store) Invalidate(ranks []int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, r := range ranks {
		for i := range st.gen {
			for _, recs := range st.gen[i].recs {
				recs[r].Step = -1
			}
		}
	}
}

// Reseed deposits a completed recovery as a fresh L1 generation: the
// restore distributed rec.Blocks into every rank's memory, which is
// exactly a new snapshot wave at rec.Step. Buddy and parity coverage
// rebuilds at the next capture (the post-swap vulnerability window).
func (st *Store) Reseed(rec *Recovery) {
	for _, s := range rec.Blocks {
		st.deposit(L1, s.Rank, s)
	}
}

// Recovery is a memory-only repair plan: a consistent set of block
// snapshots at one step for every rank of the world.
type Recovery struct {
	// Step is the snapshot generation every block belongs to.
	Step int
	// Blocks maps every rank to its block state: survivors from their
	// own L1, dead ranks from a buddy copy or a parity reconstruction.
	Blocks map[int]*Snapshot
	// BuddyRestores counts dead blocks recovered from an L2 copy.
	BuddyRestores int
	// Reconstructions counts dead blocks rebuilt from L3 parity.
	Reconstructions int
}

// RecoveryPlan decides whether the dead set is repairable purely from
// memory. It walks the two generations newest-first; for each it needs
// a valid own snapshot from every survivor, and for every dead rank
// either a valid buddy copy on a surviving holder (L2) or a parity
// equation with exactly one remaining unknown (L3) — L2-recovered
// blocks feed back into the parity equations, so a buddy chain inside
// one group resolves as far as the algebra allows. Returns (nil,
// false) when no generation can repair the loss (multi-loss in one
// group with no surviving copies, torn capture, checksum failures):
// the caller escalates to L4.
func (st *Store) RecoveryPlan(dead []int) (*Recovery, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	isDead := make(map[int]bool, len(dead))
	for _, d := range dead {
		if d < 0 || d >= st.ranks {
			return nil, false
		}
		isDead[d] = true
	}
	// Try generations newest-first.
	newest := 0
	if st.gen[1].step > st.gen[0].step {
		newest = 1
	}
	for _, g := range [...]*generation{&st.gen[newest], &st.gen[1-newest]} {
		if g.step < 0 {
			continue
		}
		if rec, ok := st.planFromGen(g, isDead); ok {
			return rec, true
		}
	}
	return nil, false
}

// LatestWave returns a consistent recovery plan built from the newest
// complete snapshot generation with every rank alive — the graceful-drain
// path's source of truth: a canceled run's supervisor assembles this wave
// and persists it as an L4 checkpoint so the job can resume where it
// stopped. It is RecoveryPlan with an empty dead set; ok is false when no
// generation is complete and verified.
func (st *Store) LatestWave() (*Recovery, bool) {
	return st.RecoveryPlan(nil)
}

// planFromGen attempts a repair from one generation. Callers hold st.mu.
func (st *Store) planFromGen(g *generation, isDead map[int]bool) (*Recovery, bool) {
	step := g.step
	blocks := make(map[int]*Snapshot, st.ranks)
	// Survivors with a valid own snapshot anchor the plan; a survivor
	// whose own copy is missing or stale (a torn capture, or memory
	// invalidated after a swap) becomes one more unknown for the buddy
	// and parity passes to solve — its holders are still alive.
	unresolved := make([]int, 0, st.ranks)
	for r := 0; r < st.ranks; r++ {
		if isDead[r] {
			unresolved = append(unresolved, r)
			continue
		}
		s := &g.recs[0][r]
		if s.Step != step || !s.Verify() {
			unresolved = append(unresolved, r)
			continue
		}
		blocks[r] = s
	}
	rec := &Recovery{Step: step, Blocks: blocks}
	// Pass 1: buddy copies. The holder of d's copy is Buddy(d); it must
	// be alive and its copy must be d's state at this step.
	remaining := unresolved[:0]
	for _, d := range unresolved {
		h := st.Buddy(d)
		if h != d && !isDead[h] {
			if c := &g.recs[1][h]; c.Rank == d && c.Step == step && c.Verify() {
				blocks[d] = c
				rec.BuddyRestores++
				continue
			}
		}
		remaining = append(remaining, d)
	}
	// Pass 2: parity, iterated to let each reconstruction unlock the
	// next (at most one unknown per group per pass).
	for len(remaining) > 0 {
		progress := false
		next := remaining[:0]
		for _, d := range remaining {
			if st.reconstructLocked(g, blocks, isDead, d, step, rec) {
				progress = true
			} else {
				next = append(next, d)
			}
		}
		remaining = next
		if !progress {
			return nil, false
		}
	}
	return rec, true
}

// reconstructLocked tries to rebuild rank d's block from a live
// member's parity replica that folds d, once every other member that
// replica folds is known. A live d whose own record is torn or fails its
// checksum may use its own replica: that replica folds d when L1 kept no
// record of it. Callers hold st.mu.
func (st *Store) reconstructLocked(g *generation, blocks map[int]*Snapshot,
	isDead map[int]bool, d, step int, rec *Recovery) bool {
	lo, hi := st.Group(d)
	for r := lo; r < hi; r++ {
		p := &g.recs[2][r]
		if isDead[r] || p.Step != step || !slices.Contains(p.folds, d) {
			continue
		}
		survivors := make([]*Snapshot, 0, len(p.folds))
		for _, m := range p.folds {
			if s, ok := blocks[m]; ok {
				survivors = append(survivors, s)
			} else if m != d {
				break // another unknown in this replica
			}
		}
		if len(survivors) != len(p.folds)-1 {
			continue
		}
		out := &Snapshot{}
		if Reconstruct(out, p, survivors, d, st.blocks[d], p.Q, step) == nil {
			blocks[d] = out
			rec.Reconstructions++
			return true
		}
	}
	return false
}
