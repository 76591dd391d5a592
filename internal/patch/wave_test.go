package patch

import (
	"math"
	"sync"
	"testing"

	"sunwaylb/internal/mpi"
	"sunwaylb/internal/resil"
)

// parityHook is a fault hook that touches parity-wave messages only.
type parityHook struct {
	mu     sync.Mutex
	first  int // lowest parity tag
	sends  int
	onSend func(n, src int, data []float64) (copies int)
}

func (h *parityHook) OnSend(src, dst, tag int, data []float64, aux []byte) int {
	if tag < h.first {
		return 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.sends
	h.sends++
	return h.onSend(n, src, data)
}

// runWaves runs three patches on two workers (patches 0 and 1 form a
// parity group across the workers) with an L1+L3 wave after every step
// but the last, and returns the store.
func runWaves(t *testing.T, steps int, onSend func(n, src int, data []float64) int) *resil.Store {
	t.Helper()
	return runWavesAt(t, steps, resil.L1|resil.L3, onSend)
}

// runWavesAt is runWaves with waves of the given levels.
func runWavesAt(t *testing.T, steps int, levels resil.Levels, onSend func(n, src int, data []float64) int) *resil.Store {
	t.Helper()
	opt := Options{
		GNX: 12, GNY: 10, GNZ: 8, TX: 3,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Init: func(gx, gy, gz int) (rho, ux, uy, uz float64) {
			return 1 + 0.01*math.Sin(0.3*float64(gx)), 0.03 * math.Sin(0.2*float64(gy)), 0.02 * math.Cos(0.25*float64(gz)), 0
		},
		Workers: make([]Worker, 2),
	}
	w, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	store, err := w.NewStore(2)
	if err != nil {
		t.Fatal(err)
	}
	var hook mpi.FaultHook
	if onSend != nil {
		hook = &parityHook{first: w.til.parityTag(0), onSend: onSend}
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
	st := runWavesAt(t, 3, resil.L1|resil.L2|resil.L3, func(n, src int, data []float64) int {
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
