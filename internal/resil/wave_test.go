package resil

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
)

// sent is one wave message as it left its sender.
type sent struct {
	src, dst, tag int
	data          []float64
	aux           []byte
}

// sendLog records a copy of every message a world sends.
type sendLog struct {
	mu   sync.Mutex
	msgs []sent
}

func (h *sendLog) OnSend(src, dst, tag int, data []float64, aux []byte) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.msgs = append(h.msgs, sent{src, dst, tag, slices.Clone(data), slices.Clone(aux)})
	return 1
}

// waveHolders builds one lattice per holder, widths along x uneven so
// records come in several sizes, each with its own state and a wall.
func waveHolders(t *testing.T, widths []int, aa bool) []Owned {
	t.Helper()
	const ny, nz = 4, 6
	owned := make([]Owned, len(widths))
	x0 := 0
	for h, nx := range widths {
		l, err := core.NewLattice(&lattice.D3Q19, nx, ny, nz, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				for z := 0; z < nz; z++ {
					g := float64(x0 + x + 2*y + 3*z + 7*h)
					l.SetCell(x, y, z, 1+0.04*math.Sin(g), 0.02*math.Cos(g), 0.01*math.Sin(0.5*g), 0.015*math.Cos(0.3*g))
				}
			}
		}
		l.SetWall(h%nx, 1, 2)
		if aa {
			l.EnableAA()
		}
		owned[h] = Owned{ID: h, Block: decomp.Block{X0: x0, NX: nx, NY: ny, NZ: nz}, Lat: l}
		x0 += nx
	}
	return owned
}

// sameSnapshot reports how got differs from want, header and payload
// bitwise, or "".
func sameSnapshot(got, want *Snapshot) string {
	if got.Rank != want.Rank || got.Step != want.Step || got.Q != want.Q ||
		got.X0 != want.X0 || got.Y0 != want.Y0 || got.Z0 != want.Z0 ||
		got.NX != want.NX || got.NY != want.NY || got.NZ != want.NZ {
		return fmt.Sprintf("header %+v, want %+v", *got, *want)
	}
	if got.Sum != want.Sum || got.members != want.members || !slices.Equal(got.folds, want.folds) {
		return fmt.Sprintf("sum %x members %x folds %v, want %x %x %v",
			got.Sum, got.members, got.folds, want.Sum, want.members, want.folds)
	}
	if !samePayload(got.Pops, want.Pops) || !slices.Equal(got.Flags, want.Flags) {
		return "payload differs"
	}
	return ""
}

// samePayload reports whether a and b hold the same words bitwise.
func samePayload(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestWaveCopiesMatchCaptureAndPack: the wave's single pass writes every
// copy of a record bitwise as a capture followed by the separate copy
// passes would: each message body and trailer as Capture then Pack, each
// L2 record as Capture then CopyFrom — a remote buddy's (a rank pair), a
// same-worker holder's (a one-worker patch pair) — and each L3 replica as
// ParityAdd over the captured members (a group of three, and three uneven
// patches on two workers), checksums included. Three waves per world on
// a double-buffer and an AA lattice run at odd, even and odd steps, so
// the later waves capture into recycled transport buffers sized for the
// largest block.
func TestWaveCopiesMatchCaptureAndPack(t *testing.T) {
	const tags = 40
	worlds := []struct {
		name   string
		widths []int
		owner  []int
		group  int
		levels Levels
	}{
		{"rank pair", []int{4, 3}, []int{0, 1}, 2, L1 | L2 | L3},
		{"rank pair without L2", []int{4, 3}, []int{0, 1}, 2, L1 | L3},
		{"one-worker patch pair", []int{3, 4}, []int{0, 0}, 2, L1 | L2 | L3},
		{"group of three", []int{4, 3, 4}, []int{0, 1, 2}, 3, L1 | L2 | L3},
		{"group of three, L2 and L3 only", []int{4, 3, 4}, []int{0, 1, 2}, 3, L2 | L3},
		{"three patches on two workers", []int{3, 4, 2}, []int{0, 1, 0}, 3, L1 | L2 | L3},
	}
	for _, aa := range []bool{false, true} {
		for _, wc := range worlds {
			name := fmt.Sprintf("%s/aa=%v", wc.name, aa)
			owned := waveHolders(t, wc.widths, aa)
			blocks := make([]decomp.Block, len(owned))
			for h := range owned {
				blocks[h] = owned[h].Block
			}
			st, err := NewStore(len(owned), wc.group, blocks)
			if err != nil {
				t.Fatal(err)
			}
			workers := slices.Max(wc.owner) + 1
			for wave := 1; wave <= 3; wave++ {
				for _, o := range owned {
					o.Lat.PeriodicAll()
					o.Lat.StepFused()
				}
				step := owned[0].Lat.Step()
				log := &sendLog{}
				world, err := mpi.NewWorld(workers)
				if err != nil {
					t.Fatal(err)
				}
				world.SetFaultHook(log)
				world.SetRecvTimeout(10 * time.Second) // a message that never matches fails, not hangs
				err = mpi.RunWorld(world, func(c *mpi.Comm) error {
					var mine []Owned
					for h, w := range wc.owner {
						if w == c.Rank() {
							mine = append(mine, owned[h])
						}
					}
					return st.Wave(c, wc.owner, mine, tags, wc.levels)
				})
				if err != nil {
					t.Fatalf("%s wave %d: %v", name, wave, err)
				}
				checkWave(t, fmt.Sprintf("%s wave %d (step %d)", name, wave, step), st, owned, wc.owner, tags, wc.levels, step, log.msgs)
			}
		}
	}
}

// checkWave holds one finished wave to its reference: every record and
// message against Capture, Pack, CopyFrom and ParityAdd.
func checkWave(t *testing.T, name string, st *Store, owned []Owned, owner []int, tags int, levels Levels, step int, msgs []sent) {
	t.Helper()
	ref := make([]*Snapshot, len(owned))
	for h, o := range owned {
		ref[h] = &Snapshot{}
		Capture(ref[h], o.Lat, o.Block, h)
	}
	var g *generation
	for i := range st.gen {
		if st.gen[i].step == step {
			g = &st.gen[i]
		}
	}
	if g == nil {
		t.Fatalf("%s: no generation at the wave's step", name)
	}
	buddied := levels.Has(L2) && st.groupSize >= 2
	want := 0
	for h := range owned {
		if levels.Has(L1) {
			if d := sameSnapshot(&g.recs[0][h], ref[h]); d != "" {
				t.Errorf("%s: L1 record of holder %d: %s", name, h, d)
			}
		}
		if src := st.BuddySource(h); buddied && src != h {
			var copied Snapshot
			copied.CopyFrom(ref[src])
			if d := sameSnapshot(&g.recs[1][h], &copied); d != "" {
				t.Errorf("%s: L2 record of holder %d: %s", name, h, d)
			}
			if owner[src] != owner[h] {
				want++
			}
		}
		if !levels.Has(L3) {
			continue
		}
		lo, hi := st.Group(h)
		first := slices.Index(owner[lo:hi], owner[h]) + lo
		var members []*Snapshot
		for r := lo; r < hi; r++ {
			if !st.keeps(owner, levels, owner[h], r) {
				members = append(members, ref[r])
			}
			if w := owner[r]; w != owner[h] && !slices.Contains(owner[lo:r], w) && !st.keeps(owner, levels, w, h) {
				want++ // h's member, bound for a worker that folds it
			}
		}
		got := &g.recs[2][h]
		if len(members) == 0 {
			if got.Step == step {
				t.Errorf("%s: holder %d keeps every member, yet holds a replica", name, h)
			}
			continue
		}
		var par Snapshot
		ParityReset(&par, first, step, 0, 0)
		ParityAdd(&par, members...)
		if d := sameSnapshot(got, &par); d != "" {
			t.Errorf("%s: L3 replica of holder %d: %s", name, h, d)
		}
	}
	if len(msgs) != want {
		t.Errorf("%s: %d messages sent, want %d", name, len(msgs), want)
	}
	for _, m := range msgs {
		kind, h := L2, m.tag-tags
		if h >= st.ranks {
			kind, h = L3, h-st.ranks
		}
		if h < 0 || h >= len(owned) || m.src != owner[h] {
			t.Errorf("%s: message %d→%d under tag %d carries no holder's record", name, m.src, m.dst, m.tag)
			continue
		}
		data, aux := ref[h].Pack(nil, nil)
		if !samePayload(m.data, data) || !slices.Equal(m.aux, aux) {
			t.Errorf("%s: %s message of holder %d to worker %d differs from Capture+Pack", name, kind, h, m.dst)
		}
	}
}
