package psolve

import (
	"math"
	"runtime"
	"sync"
	"testing"

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
	if tag < tagSnapBuddy {
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
	opts := chaosBase()
	opts.PX, opts.PY = 2, 1
	st, err := newStoreFor(&opts, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	world, err := mpi.NewWorld(2)
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
	var before, after runtime.MemStats
	var resident [4]int64
	st := runWaves(t, nil, resil.L1|resil.L2|resil.L3, 4,
		func(w int, s *Solver, _ *resil.Store) {
			if w >= 3 && s.Comm.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
		},
		func(w int, s *Solver, st *resil.Store) {
			if s.Comm.Rank() != 0 {
				return
			}
			if w >= 3 {
				runtime.ReadMemStats(&after)
				if n, got := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n != 0 {
					t.Errorf("wave %d allocated %d times (%d bytes), want 0", w, n, got)
				}
			}
			resident[w-1] = st.Resident()
		})
	if resident[1] != 2*resident[0] || resident[2] != resident[1] || resident[3] != resident[1] {
		t.Errorf("store residency per wave %v: want one generation after wave 1, two after wave 2, then flat", resident)
	}
	payload := st.Bytes()[0] / 4 / 2 // four waves, two ranks
	if want := 2 * 2 * 3 * (payload + 8*11); resident[3] < want || resident[3] > want+want/100 {
		t.Errorf("resident %d bytes, want own+buddy+parity of two generations on two ranks = %d and no spare transport buffer", resident[3], want)
	}
}

// TestWaveInFlightCorruptionSparesOwnRecord: a bit flipped in a snapshot
// message reaches neither the sender's own L1 record (what travels is a
// packed copy) nor a recovery: the buddy copy fails its checksum and the
// parity reconstruction fails the checksum the owner sent along, so the
// plan is refused instead of restoring a silently wrong block.
func TestWaveInFlightCorruptionSparesOwnRecord(t *testing.T) {
	hook := &snapHook{onSnap: func(n, src, dst int, data []float64) int {
		if src == 0 {
			data[len(data)/2] = math.Float64frombits(math.Float64bits(data[len(data)/2]) ^ 1<<17)
		}
		return 1
	}}
	st := runWaves(t, hook, resil.L1|resil.L2|resil.L3, 1, nil, nil)
	rec, ok := st.LatestWave()
	if !ok || !rec.Blocks[0].Verify() || !rec.Blocks[1].Verify() {
		t.Fatal("own records must survive a corrupted transfer")
	}
	if rec, ok := st.RecoveryPlan([]int{1}); !ok || rec.BuddyRestores != 1 {
		t.Fatal("the uncorrupted direction must still restore rank 1 from its buddy copy")
	}
	if rec, ok := st.RecoveryPlan([]int{0}); ok {
		t.Fatalf("rank 0's copies were corrupted in flight, yet a plan was made (%d buddy, %d parity restores)",
			rec.BuddyRestores, rec.Reconstructions)
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
