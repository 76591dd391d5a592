package patch

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"sunwaylb/internal/alloctest"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/resil/resiltest"
)

// waveHook is a fault hook that touches the snapshot-wave messages of
// one kind (buddy copies or parity members) only.
type waveHook struct {
	mu     sync.Mutex
	lo, hi int // the kind's tags
	sends  int
	onSend func(n, src int, data []float64) (copies int)
}

func (h *waveHook) OnSend(src, dst, tag int, data []float64, aux []byte) int {
	if tag < h.lo || tag >= h.hi {
		return 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.sends
	h.sends++
	return h.onSend(n, src, data)
}

// waveCase is three patches along x on two workers: patches 0 and 2 on
// worker 0, patch 1 on worker 1.
func waveCase() Options {
	return Options{
		GNX: 12, GNY: 10, GNZ: 8, TX: 3,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Init: func(gx, gy, gz int) (rho, ux, uy, uz float64) {
			return 1 + 0.01*math.Sin(0.3*float64(gx)), 0.03 * math.Sin(0.2*float64(gy)), 0.02 * math.Cos(0.25*float64(gz)), 0
		},
		Workers: make([]Worker, 2),
	}
}

// runWaves runs waveCase (patches 0 and 1 form a parity group across the
// workers) with an L1+L3 wave after every step but the last, and returns
// the store; onSend sees the parity messages.
func runWaves(t *testing.T, steps int, onSend func(n, src int, data []float64) int) *resil.Store {
	t.Helper()
	return runWavesAt(t, steps, 2, resil.L1|resil.L3, resil.L3, onSend)
}

// runWavesAt is runWaves in parity groups of group with waves of the
// given levels; onSend sees the wave messages of one kind (resil.L2 or
// resil.L3).
func runWavesAt(t *testing.T, steps, group int, levels, kind resil.Levels, onSend func(n, src int, data []float64) int) *resil.Store {
	t.Helper()
	w, err := NewWorld(waveCase())
	if err != nil {
		t.Fatal(err)
	}
	store, err := w.NewStore(group)
	if err != nil {
		t.Fatal(err)
	}
	var hook mpi.FaultHook
	if onSend != nil {
		base := w.til.snapTags()
		hook = &waveHook{lo: store.Tag(base, kind, 0), hi: store.Tag(base, kind, w.til.P()), onSend: onSend}
	}
	if _, err := stepWorld(w, steps, hook, store, levels); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestParityWaveDiscardsStaleDuplicate: a duplicated parity message of
// wave 1 stays queued; later waves must not fold it in as their own
// member, or every later generation's parity reconstructs an old state.
func TestParityWaveDiscardsStaleDuplicate(t *testing.T) {
	store := runWaves(t, 4, func(n, src int, data []float64) int {
		if n < 2 {
			return 2 // both directions of wave 1
		}
		return 1
	})
	wave, ok := store.LatestWave()
	if !ok || wave.Step != 3 {
		t.Fatalf("newest wave: ok=%v, want step 3", ok)
	}
	want := wave.Blocks[1].Sum
	rec, ok := store.RecoveryPlan([]int{1})
	if !ok || rec.Step != 3 || rec.Reconstructions != 1 || rec.Blocks[1].Sum != want {
		t.Fatalf("loss of patch 1 after wave 3: ok=%v, want a parity reconstruction of the step-3 state", ok)
	}
}

// TestParityWaveCorruptionIsRefused: a bit flipped in a parity message
// never reaches the sender's own record, and the poisoned parity replica
// is refused at reconstruction instead of restoring a wrong block.
func TestParityWaveCorruptionIsRefused(t *testing.T) {
	store := runWaves(t, 3, func(n, src int, data []float64) int {
		if src == 0 {
			data[len(data)/2] = math.Float64frombits(math.Float64bits(data[len(data)/2]) ^ 1<<9)
		}
		return 1
	})
	if wave, ok := store.LatestWave(); !ok || !wave.Blocks[0].Verify() {
		t.Fatal("own records must survive a corrupted transfer")
	}
	if _, ok := store.RecoveryPlan([]int{1}); !ok {
		t.Fatal("the uncorrupted direction must still reconstruct patch 1")
	}
	if rec, ok := store.RecoveryPlan([]int{0}); ok {
		t.Fatalf("patch 0 travelled corrupted, yet a plan was made (%d parity restores)", rec.Reconstructions)
	}
}

// TestWaveReusesRecords: each owned patch is captured once per wave,
// straight into its store record, and from the third wave on nothing new
// is allocated — the store holds the same bytes after three waves as
// after six.
func TestWaveReusesRecords(t *testing.T) {
	three, six := runWaves(t, 4, nil), runWaves(t, 7, nil)
	if three.Resident() != six.Resident() {
		t.Fatalf("store holds %d bytes after 3 waves, %d after 6: steady-state waves must reuse their records",
			three.Resident(), six.Resident())
	}
	payload := three.Bytes()[0] / 3 // L1 ledger of three waves = one payload of every patch each
	if got, max := three.Resident(), 2*2*payload+2*payload; got > max {
		t.Fatalf("store holds %d bytes, want at most own+parity of two generations plus the transport buffers (%d)", got, max)
	}
}

// TestPairWaveSendsNoParity: with L1 and L2 each worker of the cross-worker
// pair {0, 1} keeps its own patch and the buddy copy of the other, so the
// wave sends no parity message and stores no replica, and the loss of
// either patch is repaired from its buddy copy.
func TestPairWaveSendsNoParity(t *testing.T) {
	sent := 0
	st := runWavesAt(t, 3, 2, resil.L1|resil.L2|resil.L3, resil.L3, func(n, src int, data []float64) int {
		sent++
		return 1
	})
	if sent != 0 {
		t.Fatalf("%d parity messages sent, want none", sent)
	}
	lv, _ := st.ResidentByLevel()
	if b := st.Bytes(); b[2] != 0 || lv[2] != 0 || b[1] == 0 {
		t.Fatalf("ledger %v, resident by level %v: want L2 copies and no L3 bytes or memory", b, lv)
	}
	for _, p := range []int{0, 1} {
		if rec, ok := st.RecoveryPlan([]int{p}); !ok || rec.BuddyRestores != 1 {
			t.Fatalf("loss of patch %d must be repaired from its buddy copy", p)
		}
	}
}

// TestWaveInFlightCorruptionSparesOwnRecord: a patch's buddy copy
// travels as a rank's does, so a bit flipped in it reaches neither the
// sender's own L1 record (what travels is a packed copy) nor a recovery:
// the copy fails its checksum, and no plan restores patch 0 from it. In a
// pair worker 1 keeps both members and stores no replica; in a group of
// three worker 1's replica folds patch 2 only, which it keeps neither as
// its own nor as a buddy copy, while worker 0 keeps every member.
func TestWaveInFlightCorruptionSparesOwnRecord(t *testing.T) {
	for _, group := range []int{2, 3} {
		st := runWavesAt(t, 3, group, resil.L1|resil.L2|resil.L3, resil.L2, func(n, src int, data []float64) int {
			if src == 0 {
				data[len(data)/2] = math.Float64frombits(math.Float64bits(data[len(data)/2]) ^ 1<<17)
			}
			return 1
		})
		rec, ok := st.LatestWave()
		if !ok || !rec.Blocks[0].Verify() || !rec.Blocks[1].Verify() {
			t.Fatalf("group of %d: own records must survive a corrupted transfer", group)
		}
		if rec, ok := st.RecoveryPlan([]int{1}); !ok || rec.BuddyRestores != 1 {
			t.Fatalf("group of %d: the uncorrupted direction must still restore patch 1 from its buddy copy", group)
		}
		if l3 := st.Bytes()[2]; (l3 != 0) != (group > 2) {
			t.Fatalf("group of %d: L3 ledger %d bytes: want a replica folding patch 2 only beyond a pair", group, l3)
		}
		if rec, ok := st.RecoveryPlan([]int{0}); ok {
			t.Fatalf("group of %d: patch 0's buddy copy was corrupted in flight, yet a plan was made (%d buddy, %d parity restores)",
				group, rec.BuddyRestores, rec.Reconstructions)
		}
	}
}

// TestWaveSteadyStateAllocFree: from the third wave on a wave allocates
// nothing, and from the second the store holds the same bytes. Two
// worlds. Four patches dealt in blocks of two to two workers, in one
// parity group: a wave copies a buddy on the same worker (0 → 1, 2 → 3),
// sends one to the other (1 → 2, 3 → 0) and folds the one member each
// worker keeps neither as its own nor as a buddy copy. Six patches dealt
// cyclically to three workers, in two groups of three, so every worker
// sends members of both: the capture writes every message of a wave, so
// a worker takes all their transport buffers before it receives any, and
// the pool may hold one buffer per message of a wave, each sized for the
// largest patch — never more. One P, for the reason TestRankStepAllocFree
// gives.
func TestWaveSteadyStateAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		patches, workers, group int
		owner                   func(p int) int
		levels                  resil.Levels
	}{
		{4, 2, 4, func(p int) int { return p / 2 }, resil.L1 | resil.L2 | resil.L3},
		{6, 3, 3, func(p int) int { return p % 3 }, resil.L1 | resil.L3},
		{6, 3, 3, func(p int) int { return p % 3 }, resil.L1 | resil.L2 | resil.L3},
	} {
		name := fmt.Sprintf("%d patches on %d workers, group %d, L%s", tc.patches, tc.workers, tc.group, tc.levels)
		opt := waveCase()
		opt.TX, opt.Workers = tc.patches, make([]Worker, tc.workers)
		w, err := NewWorld(opt)
		if err != nil {
			t.Fatal(err)
		}
		for p := range w.owner {
			w.owner[p] = tc.owner(p)
		}
		st, err := w.NewStore(tc.group)
		if err != nil {
			t.Fatal(err)
		}
		base := w.til.snapTags()
		hook := &waveHook{lo: st.Tag(base, resil.L2, 0), hi: st.Tag(base, resil.L3, w.til.P()),
			onSend: func(int, int, []float64) int { return 1 }}
		mw, err := mpi.NewWorld(tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		mw.SetFaultHook(hook)
		var mark alloctest.Mark
		var resident, wire [5]int64
		err = mpi.RunWorld(mw, func(c *mpi.Comm) error {
			n, err := newNode(w, c, nil, 8, 1)
			if err != nil {
				return err
			}
			for wave := range resident {
				n.Step()
				c.Barrier()
				if c.Rank() == 0 {
					mark = alloctest.Take()
				}
				c.Barrier()
				if err := n.ResilCapture(st, tc.levels); err != nil {
					return err
				}
				c.Barrier()
				if c.Rank() == 0 {
					if a, b := mark.Since(); wave >= 2 && a != 0 {
						t.Errorf("%s: wave %d allocated %d times (%d bytes), want 0", name, wave+1, a, b)
					}
					resident[wave] = st.Resident()
					_, wire[wave] = st.ResidentByLevel()
				}
				c.Barrier()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if b := st.Bytes(); b[2] == 0 || tc.levels.Has(resil.L2) && b[1] == 0 {
			t.Errorf("%s: ledger %v: want buddy copies and replicas", name, b)
		}
		if resident[2] != resident[1] || resident[4] != resident[1] {
			t.Errorf("%s: store residency per wave %v: want it flat from the second wave on", name, resident)
		}
		cells := 0
		for _, p := range w.til.Patches {
			cells = max(cells, p.Block.Cells())
		}
		perWave := int64(hook.sends / len(resident))
		if buf := int64(8*(cells*19+11) + cells); wire[4] > perWave*buf {
			t.Errorf("%s: %d bytes of free transport buffers, want at most one %d-byte buffer per message of a wave (%d)",
				name, wire[4], buf, perWave)
		}
	}
}

// TestWavesAgreeAcrossWorlds: a rank is a worker that owns one block. A
// PX×1 rank world and a patch world of PX patches along x, one per
// worker, step the same case with a wave after each step; for every level
// set their stores must hold bitwise the same L1, L2 and L3 records and
// the same byte ledger, and plan every single loss alike.
func TestWavesAgreeAcrossWorlds(t *testing.T) {
	for _, tc := range []struct{ px, group int }{{2, 2}, {4, 4}} {
		for _, lv := range resiltest.LevelSets {
			opt := waveCase()
			opt.TX, opt.Workers = tc.px, make([]Worker, tc.px)
			opt.Walls = func(gx, gy, gz int) bool { return gx == 5 && gy == 2 && gz >= 1 }
			w, err := NewWorld(opt)
			if err != nil {
				t.Fatal(err)
			}
			patches, err := w.NewStore(tc.group)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := stepWorld(w, 4, nil, patches, lv); err != nil {
				t.Fatal(err)
			}
			ro := psolve.Options{GNX: opt.GNX, GNY: opt.GNY, GNZ: opt.GNZ, PX: tc.px, PY: 1, Tau: opt.Tau,
				PeriodicX: true, PeriodicY: true, PeriodicZ: true, Walls: opt.Walls, Init: opt.Init}
			ranks, err := psolve.NewRanks(ro).NewStore(tc.group)
			if err != nil {
				t.Fatal(err)
			}
			err = mpi.Run(tc.px, func(c *mpi.Comm) error {
				s, err := psolve.New(c, ro)
				if err != nil {
					return err
				}
				for range 3 {
					s.Step()
					if err := s.ResilCapture(ranks, lv); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%dx1 g%d L%s", tc.px, tc.group, lv)
			if a, b := ranks.Bytes(), patches.Bytes(); a != b {
				t.Errorf("%s: rank ledger %v, patch ledger %v", name, a, b)
			}
			for d := range tc.px {
				a, aok := ranks.RecoveryPlan([]int{d})
				b, bok := patches.RecoveryPlan([]int{d})
				if aok != bok || aok && (a.BuddyRestores != b.BuddyRestores || a.Reconstructions != b.Reconstructions) {
					t.Errorf("%s: loss of block %d planned differently: ranks %v %+v, patches %v %+v", name, d, aok, a, bok, b)
				}
			}
			// Slot hands out each record (marking it torn): the stores are
			// spent after this.
			for _, level := range []resil.Levels{resil.L1, resil.L2, resil.L3} {
				for h := range tc.px {
					a, b := ranks.Slot(level, h, 3), patches.Slot(level, h, 3)
					if a.Rank != b.Rank || a.Sum != b.Sum || !sameBits(a.Pops, b.Pops) || !bytes.Equal(a.Flags, b.Flags) {
						t.Errorf("%s: L%s record of block %d differs across worlds (sums %x, %x)", name, level, h, a.Sum, b.Sum)
					}
				}
			}
		}
	}
}

// sameBits reports whether two payloads hold the same bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
