package resil

import (
	"math"
	"testing"

	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
)

// schemes are the three storage situations a snapshot must read and
// write identically: double buffer, AA at even phase, AA at odd phase.
var schemes = []struct {
	name  string
	aa    bool
	steps int
}{
	{"double-buffer", false, 3},
	{"aa-even", true, 2},
	{"aa-odd", true, 3},
}

// TestBoxRoundTripMatchesCellwise pins the one gather and the one scatter
// loop against the per-cell definition (Populations / Flags), for a
// non-cubic sub-box of a larger lattice in every storage scheme: what
// CaptureAt reads is the logical state of exactly the box's cells in the
// documented layout, and installing it elsewhere reproduces those cells
// and touches nothing outside the box. Assemble and the patch world's
// snapshotsFromGlobal are these two calls.
func TestBoxRoundTripMatchesCellwise(t *testing.T) {
	box := decomp.Block{X0: 2, Y0: 1, Z0: 1, NX: 3, NY: 2, NZ: 4}
	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			_, src := aaPair(t, 7, 5, 6)
			_, dst := aaPair(t, 7, 5, 6)
			if !sc.aa {
				src, _ = aaPair(t, 7, 5, 6)
				dst, _ = aaPair(t, 7, 5, 6)
			}
			for i := 0; i < sc.steps; i++ {
				stepPair(src)
			}
			// The target holds a different state at the same phase.
			for i := 0; i < sc.steps+2; i++ {
				stepPair(dst)
			}
			before := cellwise(dst)

			var s Snapshot
			CaptureAt(&s, src, box, 5)
			if s.Step != sc.steps || s.Rank != 5 || !s.Verify() {
				t.Fatalf("capture header: step=%d rank=%d verify=%v", s.Step, s.Rank, s.Verify())
			}
			var f []float64
			for y := 0; y < box.NY; y++ {
				for x := 0; x < box.NX; x++ {
					for z := 0; z < box.NZ; z++ {
						f = src.Populations(box.X0+x, box.Y0+y, box.Z0+z, f)
						for i, want := range f {
							got := s.Pops[((y*box.NX+x)*s.Q+i)*box.NZ+z]
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("captured cell (%d,%d,%d) pop %d = %v, want %v", x, y, z, i, got, want)
							}
						}
						if got, want := s.Flags[(y*box.NX+x)*box.NZ+z], byte(src.CellTypeAt(box.X0+x, box.Y0+y, box.Z0+z)); got != want {
							t.Fatalf("captured cell (%d,%d,%d) flag = %d, want %d", x, y, z, got, want)
						}
					}
				}
			}

			if err := installBox(dst, &s, box.X0, box.Y0, box.Z0); err != nil {
				t.Fatal(err)
			}
			after, want := cellwise(dst), cellwise(src)
			for k := range after {
				x, y, z := k.x-box.X0, k.y-box.Y0, k.z-box.Z0
				inside := x >= 0 && x < box.NX && y >= 0 && y < box.NY && z >= 0 && z < box.NZ
				ref := before[k]
				if inside {
					ref = want[k]
				}
				if after[k] != ref {
					t.Fatalf("cell (%d,%d,%d) inside=%v: installed state differs from the expected one", k.x, k.y, k.z, inside)
				}
			}
		})
	}
}

type cellKey struct{ x, y, z int }
type cellState struct {
	f    [19]uint64
	flag core.CellType
}

// cellwise reads every interior cell through the per-cell accessors.
func cellwise(l *core.Lattice) map[cellKey]cellState {
	out := make(map[cellKey]cellState, l.NX*l.NY*l.NZ)
	var f []float64
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			for z := 0; z < l.NZ; z++ {
				f = l.Populations(x, y, z, f)
				c := cellState{flag: l.CellTypeAt(x, y, z)}
				for i, v := range f {
					c.f[i] = math.Float64bits(v)
				}
				out[cellKey{x, y, z}] = c
			}
		}
	}
	return out
}

// TestAssembleFromGlobalSlices slices a global lattice into an uneven 3-D
// tiling with CaptureAt and assembles it back: every interior cell of the
// result equals the original.
func TestAssembleFromGlobalSlices(t *testing.T) {
	g := testLattice(t, 7, 5, 6)
	rec := &Recovery{Step: g.Step(), Blocks: map[int]*Snapshot{}}
	id := 0
	for _, bx := range [][2]int{{0, 4}, {4, 3}} {
		for _, by := range [][2]int{{0, 2}, {2, 3}} {
			for _, bz := range [][2]int{{0, 1}, {1, 5}} {
				s := &Snapshot{}
				CaptureAt(s, g, decomp.Block{X0: bx[0], NX: bx[1], Y0: by[0], NY: by[1], Z0: bz[0], NZ: bz[1]}, id)
				rec.Blocks[id] = s
				id++
			}
		}
	}
	out, err := Assemble(rec, 7, 5, 6, g.Tau, g.Smagorinsky, g.Force)
	if err != nil {
		t.Fatal(err)
	}
	want := cellwise(g)
	for k, c := range cellwise(out) {
		if c != want[k] {
			t.Fatalf("assembled cell (%d,%d,%d) differs from the original", k.x, k.y, k.z)
		}
	}
	// A block placed outside the domain is refused, not scattered.
	rec.Blocks[0].X0 = 5
	if _, err := Assemble(rec, 7, 5, 6, g.Tau, g.Smagorinsky, g.Force); err == nil {
		t.Fatal("assembly of an out-of-domain block succeeded")
	}
}

// TestChecksumDetectsEveryBitFlip is the property the lane construction
// guarantees: flipping any single bit of the populations or the flags, and
// any truncation or extension, changes the checksum — at every payload
// length across the four-lane tail, and however the stream is cut into
// write calls.
func TestChecksumDetectsEveryBitFlip(t *testing.T) {
	for n := 0; n <= 9; n++ {
		pops := make([]float64, n)
		flags := make([]byte, n)
		for i := range pops {
			pops[i] = 1 / float64(i+3)
			flags[i] = byte(i % 3)
		}
		sum := Checksum(pops, flags)
		for i := range pops {
			for bit := 0; bit < 64; bit++ {
				pops[i] = math.Float64frombits(math.Float64bits(pops[i]) ^ 1<<bit)
				if Checksum(pops, flags) == sum {
					t.Fatalf("n=%d: flipping bit %d of word %d goes undetected", n, bit, i)
				}
				pops[i] = math.Float64frombits(math.Float64bits(pops[i]) ^ 1<<bit)
			}
		}
		for i := range flags {
			for bit := 0; bit < 8; bit++ {
				flags[i] ^= 1 << bit
				if Checksum(pops, flags) == sum {
					t.Fatalf("n=%d: flipping bit %d of flag %d goes undetected", n, bit, i)
				}
				flags[i] ^= 1 << bit
			}
		}
		if n > 0 && (Checksum(pops[:n-1], flags) == sum || Checksum(pops, flags[:n-1]) == sum) {
			t.Fatalf("n=%d: truncation goes undetected", n)
		}
		if Checksum(append(pops, 0), flags) == sum || Checksum(pops, append(flags, 0)) == sum {
			t.Fatalf("n=%d: zero extension goes undetected", n)
		}
		// Row-wise hashing (capture) equals hashing at rest (Verify).
		for cut := 0; cut <= n; cut++ {
			d := newDigest()
			d.pops.write(pops[:cut])
			d.pops.write(pops[cut:])
			d.flags.writeBytes(flags[:cut])
			d.flags.writeBytes(flags[cut:])
			if d.sum(n, n) != sum {
				t.Fatalf("n=%d: stream cut at %d changes the checksum", n, cut)
			}
		}
	}
}

// TestParityAddSealsInPass checks the fused XOR-and-hash against the
// definition: the record equals the padded XOR of its members, carries
// the checksum Verify recomputes, and is the same whether the members
// arrive one call at a time or fused.
func TestParityAddSealsInPass(t *testing.T) {
	l := testLattice(t, 7, 4, 3)
	snaps := groupSnapshots(t, l, []decomp.Block{
		{X0: 0, NX: 2, NY: 4, NZ: 3},
		{X0: 2, NX: 3, NY: 4, NZ: 3},
		{X0: 5, NX: 2, NY: 4, NZ: 3},
	})
	var fused, single Snapshot
	ParityReset(&fused, 0, l.Step(), 0, 0)
	ParityAdd(&fused, snaps...)
	ParityReset(&single, 0, l.Step(), 0, 0)
	for _, s := range snaps {
		ParityAdd(&single, s)
		if !single.Verify() {
			t.Fatal("record is not sealed after ParityAdd")
		}
	}
	if !fused.Verify() || fused.Sum != single.Sum || len(fused.Pops) != len(snaps[1].Pops) {
		t.Fatalf("fused record: verify=%v sum=%x vs %x, %d pops", fused.Verify(), fused.Sum, single.Sum, len(fused.Pops))
	}
	for i := range fused.Pops {
		var want uint64
		for _, s := range snaps {
			if i < len(s.Pops) {
				want ^= math.Float64bits(s.Pops[i])
			}
		}
		if math.Float64bits(fused.Pops[i]) != want || math.Float64bits(single.Pops[i]) != want {
			t.Fatalf("parity word %d is not the XOR of the members", i)
		}
	}
}

// TestStoreRecordsFilledInPlace covers the Slot/Commit protocol: a record
// is invisible to recovery plans until committed, NewStore touches no
// payload memory, and buffers are reused from the third wave on.
func TestStoreRecordsFilledInPlace(t *testing.T) {
	l := testLattice(t, 4, 4, 3)
	blocks := []decomp.Block{{NX: 4, NY: 4, NZ: 3}}
	st, err := NewStore(1, 1, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resident() != 0 {
		t.Fatalf("a new store holds %d payload bytes, want 0", st.Resident())
	}
	fill := func(step int, commit bool) *Snapshot {
		l.SetStep(step)
		s := st.Slot(L1, 0, step)
		Capture(s, l, blocks[0], 0)
		if commit {
			st.Commit(L1, s, step)
		} else {
			s.Step = -1 // the rank died before the header was stamped
		}
		return s
	}
	fill(2, true)
	fill(4, false)
	rec, ok := st.LatestWave()
	if !ok || rec.Step != 2 {
		t.Fatalf("torn newest generation: plan ok=%v at step %v, want the older complete step 2", ok, rec)
	}
	resident := st.Resident()
	a, b := fill(6, true), fill(8, true)
	if a == b || st.Resident() != resident {
		t.Fatalf("steady-state waves must reuse the two generations' buffers (resident %d → %d)", resident, st.Resident())
	}
	if rec, ok := st.LatestWave(); !ok || rec.Step != 8 {
		t.Fatalf("newest committed generation not found: ok=%v", ok)
	}
	if got, want := st.Bytes()[0], 3*a.PayloadBytes(); got != want {
		t.Fatalf("L1 ledger %d, want three committed payloads = %d", got, want)
	}
}
