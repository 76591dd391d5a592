package psolve

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"sunwaylb/internal/alloctest"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/resil"
)

// snapHook is a fault hook that touches snapshot messages only (the
// injector's link faults cannot tell them from halo faces).
type snapHook struct {
	mu    sync.Mutex
	sends int
	// onSnap decides the fate of the n-th snapshot message (0-based).
	onSnap func(n, src, dst int, data []float64) (copies int)
}

func (h *snapHook) OnSend(src, dst, tag int, data []float64, aux []byte) int {
	if tag < tagSnap {
		return 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.sends
	h.sends++
	return h.onSnap(n, src, dst, data)
}

// runWaves steps a 2-rank world and runs a wave of the given levels after
// each of the first `waves` steps; each hook sees what its name says.
func runWaves(t *testing.T, hook mpi.FaultHook, levels resil.Levels, waves int, beforeWave, afterWave func(w int, s *Solver, st *resil.Store)) *resil.Store {
	t.Helper()
	return runWavesOn(t, 2, 1, 2, hook, levels, waves, beforeWave, afterWave)
}

// runWavesOn is runWaves on a px×py world in parity groups of group.
func runWavesOn(t *testing.T, px, py, group int, hook mpi.FaultHook, levels resil.Levels, waves int, beforeWave, afterWave func(w int, s *Solver, st *resil.Store)) *resil.Store {
	t.Helper()
	opts := chaosBase()
	opts.PX, opts.PY = px, py
	st, err := (&rankWorld{opts}).NewStore(group)
	if err != nil {
		t.Fatal(err)
	}
	world, err := mpi.NewWorld(px * py)
	if err != nil {
		t.Fatal(err)
	}
	if hook != nil {
		world.SetFaultHook(hook)
	}
	err = mpi.RunWorld(world, func(c *mpi.Comm) error {
		s, err := New(c, opts)
		if err != nil {
			return err
		}
		for w := 1; w <= waves; w++ {
			s.Step()
			c.Barrier()
			if beforeWave != nil {
				beforeWave(w, s, st)
			}
			if err := s.ResilCapture(st, levels); err != nil {
				return err
			}
			c.Barrier()
			if afterWave != nil {
				afterWave(w, s, st)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWaveSteadyStateAllocFree: the third L1+L2+L3 wave refills the first
// generation's records, packs into recycled transport buffers and
// receives through the mailboxes' kept waiter channels, so it allocates
// nothing at all. One P, for the reason TestRankStepAllocFree gives.
func TestWaveSteadyStateAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mark alloctest.Mark
	var resident [4]int64
	st := runWaves(t, nil, resil.L1|resil.L2|resil.L3, 4,
		func(w int, s *Solver, _ *resil.Store) {
			if w >= 3 && s.Comm.Rank() == 0 {
				mark = alloctest.Take()
			}
		},
		func(w int, s *Solver, st *resil.Store) {
			if s.Comm.Rank() != 0 {
				return
			}
			if w >= 3 {
				if n, got := mark.Since(); n != 0 {
					t.Errorf("wave %d allocated %d times (%d bytes), want 0", w, n, got)
				}
			}
			resident[w-1] = st.Resident()
		})
	if resident[1] != 2*resident[0] || resident[2] != resident[1] || resident[3] != resident[1] {
		t.Errorf("store residency per wave %v: want one generation after wave 1, two after wave 2, then flat", resident)
	}
	payload := st.Bytes()[0] / 4 / 2 // four waves, two ranks
	if want := 2 * 2 * 2 * (payload + 8*11); resident[3] < want || resident[3] > want+want/100 {
		t.Errorf("resident %d bytes, want own+buddy of two generations on two ranks = %d and no spare transport buffer", resident[3], want)
	}
	if l3 := st.Bytes()[2]; l3 != 0 {
		t.Errorf("L3 ledger %d bytes, want 0: a pair with L1 and L2 keeps both members and folds none", l3)
	}
}

// TestWaveSteadyStateAllocFreeGroupOfFour: in a group of four every
// replica folds the two members its rank does not keep — the first
// received waits for the second — and from the third wave on that
// allocates nothing either. Unlike a pair's, the transport pool's peak
// depends on how the ranks interleave: a wave may still allocate the
// buffers that raise it (the race detector's schedules do, at wave 3 or
// 4), and then the store's residency grows by them — every byte the wave
// allocated, up to the allocator's 8 KiB page rounding, and nothing is
// dropped. Only this module's allocations count (alloctest): the
// runtime's own, such as its timer heap growing, are not the wave's. The
// 2x2 world's blocks are equal, so four replicas of two blocks weigh as
// much as the four own records. The 4x1 world's blocks
// are 5, 5, 4 and 4 cells wide: its records come in two sizes, and a send
// that took a free buffer too small for its record dropped it and made a
// new one, every wave.
func TestWaveSteadyStateAllocFreeGroupOfFour(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, world := range [][2]int{{2, 2}, {4, 1}} {
		px, py := world[0], world[1]
		mark := alloctest.Take()
		var resident int64
		st := runWavesOn(t, px, py, 4, nil, resil.L1|resil.L2|resil.L3, 6, nil,
			func(w int, s *Solver, st *resil.Store) {
				if s.Comm.Rank() != 0 {
					return
				}
				// Every rank is past the wave: no buffer is in flight, and
				// from one wave's end to the next lie a step and the wave.
				n, got := mark.Since()
				grew := st.Resident() - resident
				if w >= 3 && got > 0 && (grew == 0 || got > grew+n*8192) {
					t.Errorf("%dx%d: wave %d allocated %d times (%d bytes) and the store grew %d bytes, want 0 or all of it kept",
						px, py, w, n, got, grew)
				}
				resident = st.Resident()
				mark = alloctest.Take()
			})
		b := st.Bytes()
		if b[2] == 0 {
			t.Errorf("%dx%d: L3 ledger empty, want the replicas of the members no rank keeps", px, py)
		}
		if px == 2 && b[2] != b[0] {
			t.Errorf("2x2: L3 ledger %d bytes, want the L1 ledger's %d: each replica folds two of four equal blocks", b[2], b[0])
		}
	}
}

// TestPairStoresNoParity: in a group of two with L1 and L2 every rank
// already keeps both members' records, so the wave computes no replica —
// no parity ledger bytes, no L3 memory — and either loss is still
// repaired, from the buddy copy. With L2 off the replica is the other
// member's record alone, and the loss is repaired from it.
func TestPairStoresNoParity(t *testing.T) {
	st := runWaves(t, nil, resil.L1|resil.L2|resil.L3, 2, nil, nil)
	lv, _ := st.ResidentByLevel()
	if b := st.Bytes(); b[2] != 0 || lv[2] != 0 || b[0] == 0 || b[1] != b[0] {
		t.Fatalf("ledger %v, resident by level %v: want L1 = L2 and no L3 bytes or memory", b, lv)
	}
	for d := 0; d < 2; d++ {
		if rec, ok := st.RecoveryPlan([]int{d}); !ok || rec.BuddyRestores != 1 || rec.Reconstructions != 0 {
			t.Fatalf("loss of rank %d must be repaired from its buddy copy", d)
		}
	}
	st = runWaves(t, nil, resil.L1|resil.L3, 2, nil, nil)
	if b := st.Bytes(); b[2] != b[0] {
		t.Fatalf("ledger %v: with L2 off each replica folds the other member, one block", b)
	}
	if rec, ok := st.RecoveryPlan([]int{1}); !ok || rec.Reconstructions != 1 {
		t.Fatal("with L2 off the loss of rank 1 must be rebuilt from rank 0's replica")
	}
}

// TestWaveInFlightCorruptionSparesOwnRecord: a bit flipped in a snapshot
// message reaches neither the sender's own L1 record (what travels is a
// packed copy) nor a recovery: the buddy copy fails its checksum and a
// parity reconstruction fails the checksum the owner sent along, so the
// plan is refused instead of restoring a silently wrong block. A pair
// has no replica to poison; in a group of three rank 2's replica folds
// rank 0 from the corrupted parity message.
func TestWaveInFlightCorruptionSparesOwnRecord(t *testing.T) {
	for _, group := range []int{2, 3} {
		hook := &snapHook{onSnap: func(n, src, dst int, data []float64) int {
			if src == 0 {
				data[len(data)/2] = math.Float64frombits(math.Float64bits(data[len(data)/2]) ^ 1<<17)
			}
			return 1
		}}
		st := runWavesOn(t, group, 1, group, hook, resil.L1|resil.L2|resil.L3, 1, nil, nil)
		rec, ok := st.LatestWave()
		if !ok || !rec.Blocks[0].Verify() || !rec.Blocks[1].Verify() {
			t.Fatalf("group of %d: own records must survive a corrupted transfer", group)
		}
		if rec, ok := st.RecoveryPlan([]int{1}); !ok || rec.BuddyRestores != 1 {
			t.Fatalf("group of %d: the uncorrupted direction must still restore rank 1 from its buddy copy", group)
		}
		if l3 := st.Bytes()[2]; (l3 != 0) != (group > 2) {
			t.Fatalf("group of %d: L3 ledger %d bytes: want a replica folding rank 0 only beyond a pair", group, l3)
		}
		if rec, ok := st.RecoveryPlan([]int{0}); ok {
			t.Fatalf("group of %d: rank 0's copies were corrupted in flight, yet a plan was made (%d buddy, %d parity restores)",
				group, rec.BuddyRestores, rec.Reconstructions)
		}
	}
}

// TestWaveDiscardsStaleDuplicate: a duplicated snapshot message stays
// queued behind the original; the next wave must not take it for its own
// payload. With the duplicate before wave 1 and a loss after wave 3, the
// repair must come from the newest generation — from the buddy copy, and
// with L2 off from the parity replica.
func TestWaveDiscardsStaleDuplicate(t *testing.T) {
	for _, levels := range []resil.Levels{resil.L1 | resil.L2 | resil.L3, resil.L1 | resil.L3} {
		hook := &snapHook{onSnap: func(n, src, dst int, data []float64) int {
			if n < 2 {
				return 2 // both directions of wave 1
			}
			return 1
		}}
		var want resil.Snapshot
		st := runWaves(t, hook, levels, 3, nil, func(w int, s *Solver, _ *resil.Store) {
			if w == 3 && s.Comm.Rank() == 1 {
				resil.Capture(&want, s.Lat, s.Block, 1)
			}
		})
		rec, ok := st.RecoveryPlan([]int{1})
		if !ok {
			t.Fatalf("levels %s: single loss after a complete wave must be repairable from memory", levels)
		}
		if rec.Step != 3 || rec.BuddyRestores+rec.Reconstructions != 1 || rec.Reconstructions == 1 != !levels.Has(resil.L2) ||
			rec.Blocks[1].Sum != want.Sum {
			t.Fatalf("levels %s: recovered step %d (%d buddy, %d parity restores), sum match %v: want the newest generation, step 3",
				levels, rec.Step, rec.BuddyRestores, rec.Reconstructions, rec.Blocks[1].Sum == want.Sum)
		}
	}
}

// BenchmarkWave times one L1+L2+L3 snapshot wave on a fixed 24×96×48
// block per rank, from the third wave on (every buffer recycled): pair is
// a 2×1 world in one parity group of two, which keeps both members and
// sends buddy copies only; group3 a 3×1 world in a group of three, where
// every rank also sends a parity member and XORs one into its replica.
// ms/wave is rank 0's mean wave time.
func BenchmarkWave(b *testing.B) {
	for _, bc := range []struct {
		name      string
		px, group int
	}{{"pair", 2, 2}, {"group3", 3, 3}} {
		b.Run(bc.name, func(b *testing.B) {
			opts := chaosBase()
			opts.PX, opts.PY = bc.px, 1
			opts.GNX, opts.GNY, opts.GNZ = 24*bc.px, 96, 48
			opts.Walls = nil
			st, err := (&rankWorld{opts}).NewStore(bc.group)
			if err != nil {
				b.Fatal(err)
			}
			world, err := mpi.NewWorld(bc.px)
			if err != nil {
				b.Fatal(err)
			}
			levels := resil.L1 | resil.L2 | resil.L3
			var spent time.Duration
			b.ReportAllocs()
			err = mpi.RunWorld(world, func(c *mpi.Comm) error {
				s, err := New(c, opts)
				if err != nil {
					return err
				}
				for w := 0; w < 2; w++ { // fill both generations
					s.Step()
					if err := s.ResilCapture(st, levels); err != nil {
						return err
					}
				}
				s.Step()
				c.Barrier()
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					if err := s.ResilCapture(st, levels); err != nil {
						return err
					}
					if c.Rank() == 0 {
						spent += time.Since(t0)
					}
					c.Barrier()
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(spent.Microseconds())/1e3/float64(b.N), "ms/wave")
		})
	}
}
