package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"sunwaylb/internal/lattice"
)

// TestPackFaceWireFormatPhaseIndependent packs every face of an AA
// lattice and its bit-identical double-buffer twin after each of the
// first two steps (even and odd storage parity) into buffers of exactly
// the face's wire size, and requires both to hold, on fluid cells, every
// crossing population of the layer's cells bitwise at its wire position:
// the packed format is the logical population order regardless of the
// sender's storage phase, so pack/unpack pairs compose across ranks at
// different phases.
func TestPackFaceWireFormatPhaseIndependent(t *testing.T) {
	ref, aa := buildPair(t, 6, 5, 7, 0.8, false)
	var fr []float64
	for step := 1; step <= 2; step++ {
		ref.PeriodicAll()
		aa.PeriodicAll()
		ref.StepFused()
		aa.StepFused()
		// Refresh the halo so the tangential halo extent of each face
		// layer is well-defined (as the distributed drivers do before
		// packing); the storage parity of the step is unaffected.
		ref.PeriodicAll()
		aa.PeriodicAll()
		parity := []string{"even", "odd"}[step%2]
		for f := FaceXMin; f < numFaces; f++ {
			nc := ref.FaceCells(f)
			cross := ref.Crossing(f)
			m := len(cross)
			bufR := make([]float64, m*nc)
			bufA := make([]float64, m*nc)
			flagsR := make([]CellType, nc)
			flagsA := make([]CellType, nc)
			ref.PackFace(f, bufR, flagsR)
			aa.PackFace(f, bufA, flagsA)
			n := ref.FaceLine(f, 0, 0).Len // cell k = line k/n, position k%n
			for k := 0; k < nc; k++ {
				if flagsR[k] != flagsA[k] {
					t.Fatalf("step %d (%s parity) face %v cell %d: flag %v (ref) != %v (aa)",
						step, parity, f, k, flagsR[k], flagsA[k])
				}
				if flagsR[k] != Fluid {
					continue // non-fluid populations are undefined
				}
				x, y, z := ref.Coords(ref.FaceLine(f, 0, k/n).Cell(k % n))
				fr = ref.Populations(x, y, z, fr)
				for r, i := range cross {
					o := (k/n*m+r)*n + k%n
					w, a := bufR[o], bufA[o]
					if math.Float64bits(w) != math.Float64bits(fr[i]) || math.Float64bits(a) != math.Float64bits(fr[i]) {
						t.Fatalf("step %d (%s parity) face %v cell %d pop %d: %v (ref), %v (aa), cell holds %v",
							step, parity, f, k, i, w, a, fr[i])
					}
				}
			}
		}
	}
}

// phaseLattice builds a non-cubic lattice whose every allocated cell
// (halo included) holds distinct populations derived from seed, with
// walls on the boundary layers, in the given storage: "db" (double
// buffer), "even" or "odd" (AA at that phase). All three hold the same
// logical state.
func phaseLattice(t testing.TB, storage string, seed float64) *Lattice {
	t.Helper()
	l := newTestLattice(t, 5, 4, 6, 0.8)
	f := make([]float64, l.Desc.Q)
	for y := -1; y <= l.NY; y++ {
		for x := -1; x <= l.NX; x++ {
			for z := -1; z <= l.NZ; z++ {
				for i := range f {
					f[i] = seed + float64(l.Idx(x, y, z)) + float64(i)/32
				}
				l.SetPopulations(x, y, z, f)
			}
		}
	}
	l.SetWall(0, 1, 2)
	l.SetWall(l.NX-1, 2, 0)
	l.SetWall(2, 0, l.NZ-1)
	l.SetMovingWall(3, l.NY-1, 3, 0.01, 0, 0)
	switch storage {
	case "even":
		l.EnableAA()
	case "odd":
		l.SetStep(1)
		l.EnableAA()
	}
	return l
}

// TestPackUnpackAcrossPhases sends every face of a sender into the
// opposite halo of a receiver for every pairing of storage schemes and
// phases, and requires the receiver to end up — in every allocated cell,
// populations and flags — exactly as the definition says: the halo layer
// takes the facing cells' populations that cross the face (c_i·n < 0 for
// the halo face's outward normal n) and their non-Ghost flags, and every
// other slot keeps its value. This covers the shifted bases, the
// natural-slot fallback on the line ends and the edge lines, and the
// phase-independent wire format. CopyFace, the same move without the
// buffer, must leave the same receiver.
func TestPackUnpackAcrossPhases(t *testing.T) {
	storages := []string{"db", "even", "odd"}
	for f := FaceXMin; f < numFaces; f++ {
		opp := f ^ 1
		want := unpackedByDefinition(phaseLattice(t, "db", 0), phaseLattice(t, "db", 1000), opp)
		snd := phaseLattice(t, "db", 0)
		buf := make([]float64, len(snd.Crossing(f))*snd.FaceCells(f))
		flags := make([]CellType, snd.FaceCells(f))
		for _, ss := range storages {
			for _, rs := range storages {
				snd, rcv := phaseLattice(t, ss, 0), phaseLattice(t, rs, 1000)
				snd.PackFace(f, buf, flags)
				rcv.UnpackFace(opp, buf, flags)
				requireSameCells(t, want, rcv, f.String()+" "+ss+"→"+rs)
				rcv = phaseLattice(t, rs, 1000)
				snd.CopyFace(f, rcv, true)
				requireSameCells(t, want, rcv, "copy "+f.String()+" "+ss+"→"+rs)
			}
		}
	}
}

// unpackedByDefinition writes into rcv what UnpackFace(f) of snd's
// PackFace(f.Opposite()) must: in every cell of rcv's halo layer at f
// (tangential halo included), the populations whose velocity points into
// the block take the value of the facing cell of snd's interior boundary
// layer, and so does the flag unless it is Ghost. The two lattices have
// the same extents. It returns rcv.
func unpackedByDefinition(snd, rcv *Lattice, f Face) *Lattice {
	a := int(f) / 2
	n := [3]int{rcv.NX, rcv.NY, rcv.NZ}
	halo, from, in := -1, n[a]-1, 1 // a min face: inward is +axis
	if f%2 == 1 {
		halo, from, in = n[a], 0, -1
	}
	var fs, fr []float64
	for y := -1; y <= rcv.NY; y++ {
		for x := -1; x <= rcv.NX; x++ {
			for z := -1; z <= rcv.NZ; z++ {
				c := [3]int{x, y, z}
				if c[a] != halo {
					continue
				}
				s := c
				s[a] = from
				fs = snd.Populations(s[0], s[1], s[2], fs)
				fr = rcv.Populations(x, y, z, fr)
				for i := range fr {
					if rcv.Desc.C[i][a] == in {
						fr[i] = fs[i]
					}
				}
				rcv.SetPopulations(x, y, z, fr)
				if fl := snd.CellTypeAt(s[0], s[1], s[2]); fl != Ghost {
					rcv.Flags[rcv.Idx(x, y, z)] = fl
				}
			}
		}
	}
	return rcv
}

// TestCrossingSets pins each descriptor's face wire format: on every face
// the populations whose velocity leaves through it, ascending — 3/5/5/9 on
// an x or y face of D2Q9/D3Q15/D3Q19/D3Q27, none on a z face of D2Q9 —
// and the opposite face carries exactly their opposites.
func TestCrossingSets(t *testing.T) {
	for _, c := range []struct {
		desc       *lattice.Descriptor
		side, zend int
	}{{&lattice.D2Q9, 3, 0}, {&lattice.D3Q15, 5, 5}, {&lattice.D3Q19, 5, 5}, {&lattice.D3Q27, 9, 9}} {
		l, err := NewLattice(c.desc, 3, 3, 3, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		for f := FaceXMin; f < numFaces; f++ {
			a, out := int(f)/2, 2*(int(f)%2)-1
			var want []int
			for i, ci := range c.desc.C {
				if ci[a]*out > 0 {
					want = append(want, i)
				}
			}
			got := l.Crossing(f)
			if n := map[bool]int{true: c.zend, false: c.side}[a == 2]; len(got) != n || !slices.Equal(got, want) {
				t.Fatalf("%s face %v: crossing %v, want %v (%d populations)", c.desc.Name, f, got, want, n)
			}
			var opp []int
			for _, i := range got {
				opp = append(opp, c.desc.Opp[i])
			}
			slices.Sort(opp)
			if !slices.Equal(opp, l.Crossing(f.Opposite())) {
				t.Fatalf("%s face %v: opposites %v, the opposite face carries %v", c.desc.Name, f, opp, l.Crossing(f.Opposite()))
			}
		}
	}
}

// requireSameCells fails unless every allocated cell of got has the
// logical populations and the flag of the same cell of want.
func requireSameCells(t *testing.T, want, got *Lattice, what string) {
	t.Helper()
	var fw, fg []float64
	for y := -1; y <= want.NY; y++ {
		for x := -1; x <= want.NX; x++ {
			for z := -1; z <= want.NZ; z++ {
				if w, g := want.CellTypeAt(x, y, z), got.CellTypeAt(x, y, z); w != g {
					t.Fatalf("%s: cell (%d,%d,%d) flag %v, want %v", what, x, y, z, g, w)
				}
				fw = want.Populations(x, y, z, fw)
				fg = got.Populations(x, y, z, fg)
				for i := range fw {
					if math.Float64bits(fw[i]) != math.Float64bits(fg[i]) {
						t.Fatalf("%s: cell (%d,%d,%d) pop %d = %v, want %v", what, x, y, z, i, fg[i], fw[i])
					}
				}
			}
		}
	}
}

// TestPeriodicAxisAcrossPhases wraps each axis on AA storage at both
// phases and requires every allocated cell to match the double-buffer
// wrap of the same logical state.
func TestPeriodicAxisAcrossPhases(t *testing.T) {
	for axis := 0; axis < 3; axis++ {
		want := phaseLattice(t, "db", 0)
		want.PeriodicAxis(axis)
		for _, s := range []string{"even", "odd"} {
			got := phaseLattice(t, s, 0)
			got.PeriodicAxis(axis)
			requireSameCells(t, want, got, "axis "+string(rune('x'+axis))+" "+s)
		}
	}
}

// BenchmarkPeriodicAxis times each axis's wrap on the common 48×192×96
// grid on AA storage at both parities. A step between any two calls has
// evicted the faces from the near caches, as in the stepping loop; the
// reported figure is the fastest call per parity, which is robust against
// a shared host's noise.
func BenchmarkPeriodicAxis(b *testing.B) {
	l, err := NewLattice(&lattice.D3Q19, 48, 192, 96, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	l.EnableAA()
	for axis := 0; axis < 3; axis++ {
		b.Run(string(rune('x'+axis)), func(b *testing.B) {
			best := [2]time.Duration{1 << 62, 1 << 62}
			for i := 0; i < b.N; i++ {
				for range best {
					t0 := time.Now()
					l.PeriodicAxis(axis)
					d := time.Since(t0)
					best[l.Step()&1] = min(best[l.Step()&1], d)
					b.StopTimer()
					l.StepFused()
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(best[0].Microseconds()), "even-µs")
			b.ReportMetric(float64(best[1].Microseconds()), "odd-µs")
		})
	}
}
