package core

import (
	"math"
	"testing"
	"time"

	"sunwaylb/internal/lattice"
)

// TestPackFaceWireFormatPhaseIndependent packs every face of an AA
// lattice and its bit-identical double-buffer twin after each of the
// first two steps (even and odd storage parity) and requires the wire
// buffers to match bit-exactly on fluid cells: the packed format is the
// logical population order regardless of the sender's storage phase, so
// pack/unpack pairs compose across ranks at different phases.
func TestPackFaceWireFormatPhaseIndependent(t *testing.T) {
	ref, aa := buildPair(t, 6, 5, 7, 0.8, false)
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
			q := ref.Desc.Q
			bufR := make([]float64, q*nc)
			bufA := make([]float64, q*nc)
			flagsR := make([]CellType, nc)
			flagsA := make([]CellType, nc)
			ref.PackFace(f, bufR, flagsR)
			aa.PackFace(f, bufA, flagsA)
			for k := 0; k < nc; k++ {
				if flagsR[k] != flagsA[k] {
					t.Fatalf("step %d (%s parity) face %v cell %d: flag %v (ref) != %v (aa)",
						step, parity, f, k, flagsR[k], flagsA[k])
				}
				if flagsR[k] != Fluid {
					continue // non-fluid populations are undefined
				}
				n := ref.FaceLine(f, 0, 0).Len // cell k = line k/n, position k%n
				for i := 0; i < q; i++ {
					o := k/n*n*q + i*n + k%n
					r, a := bufR[o], bufA[o]
					if math.Float64bits(r) != math.Float64bits(a) {
						t.Fatalf("step %d (%s parity) face %v cell %d pop %d: %v (ref) != %v (aa)",
							step, parity, f, k, i, r, a)
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
// populations and flags — exactly like a double-buffer receiver fed by a
// double-buffer sender. This covers the shifted bases, the natural-slot
// fallback on the line ends and the edge lines, and the phase-independent
// wire format.
func TestPackUnpackAcrossPhases(t *testing.T) {
	storages := []string{"db", "even", "odd"}
	for f := FaceXMin; f < numFaces; f++ {
		opp := f ^ 1
		want := phaseLattice(t, "db", 1000)
		snd := phaseLattice(t, "db", 0)
		buf := make([]float64, snd.Desc.Q*snd.FaceCells(f))
		flags := make([]CellType, snd.FaceCells(f))
		snd.PackFace(f, buf, flags)
		want.UnpackFace(opp, buf, flags)
		for _, ss := range storages {
			for _, rs := range storages {
				snd, rcv := phaseLattice(t, ss, 0), phaseLattice(t, rs, 1000)
				snd.PackFace(f, buf, flags)
				rcv.UnpackFace(opp, buf, flags)
				requireSameCells(t, want, rcv, f.String()+" "+ss+"→"+rs)
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
