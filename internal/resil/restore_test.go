package resil

import (
	"errors"
	"math"
	"testing"

	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
)

// aaPair builds a double-buffer reference lattice and an AA twin with
// identical perturbed state and a wall cell.
func aaPair(t *testing.T, nx, ny, nz int) (ref, aa *core.Lattice) {
	t.Helper()
	mk := func() *core.Lattice {
		l, err := core.NewLattice(&lattice.D3Q19, nx, ny, nz, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				for z := 0; z < nz; z++ {
					l.SetCell(x, y, z, 1+0.04*math.Sin(float64(x+2*y+3*z)),
						0.02*math.Cos(float64(x-z)), 0.01*math.Sin(float64(y)), 0.015*math.Cos(float64(z)))
				}
			}
		}
		l.SetWall(1, 1, 1)
		return l
	}
	ref, aa = mk(), mk()
	aa.EnableAA()
	return ref, aa
}

func stepPair(ls ...*core.Lattice) {
	for _, l := range ls {
		l.PeriodicAll()
		l.StepFused()
	}
}

// TestCaptureAAPhaseIndependent pins the L1 capture wire format: the
// serialised snapshot of an AA lattice is bit-identical to the reference
// lattice's at every step, in particular at the odd storage phase where
// the in-memory layout differs completely.
func TestCaptureAAPhaseIndependent(t *testing.T) {
	ref, aa := aaPair(t, 5, 4, 6)
	b := decomp.Block{NX: 5, NY: 4, NZ: 6}
	var sr, sa Snapshot
	for s := 1; s <= 4; s++ {
		stepPair(ref, aa)
		Capture(&sr, ref, b, 0)
		Capture(&sa, aa, b, 0)
		for k := range sr.Pops {
			// Fluid-cell payload must match bitwise; wall-cell slots are
			// semantically undefined in both schemes, so skip them.
			row, z := k/(sr.Q*sr.NZ), k%sr.NZ
			if sr.Flags[row*sr.NZ+z] != byte(core.Fluid) {
				continue
			}
			if math.Float64bits(sr.Pops[k]) != math.Float64bits(sa.Pops[k]) {
				t.Fatalf("step %d (parity %d): payload word %d differs: ref %v aa %v",
					s, s&1, k, sr.Pops[k], sa.Pops[k])
			}
		}
		for k := range sr.Flags {
			if sr.Flags[k] != sa.Flags[k] {
				t.Fatalf("step %d: flag %d differs", s, k)
			}
		}
		if !sa.Verify() {
			t.Fatalf("step %d: AA snapshot failed checksum", s)
		}
	}
}

// TestRestoreIntoResume is the phase-parity metamorphic oracle: capture
// an AA run at an odd step, restore the snapshot into a fresh AA lattice
// placed at the right parity, resume, and require bit-identity with the
// uninterrupted run at every subsequent step.
func TestRestoreIntoResume(t *testing.T) {
	for _, stop := range []int{2, 3} {
		ref, aa := aaPair(t, 5, 4, 6)
		for s := 0; s < stop; s++ {
			stepPair(ref, aa)
		}
		b := decomp.Block{NX: 5, NY: 4, NZ: 6}
		var snap Snapshot
		Capture(&snap, aa, b, 0)

		fresh, err := core.NewLattice(&lattice.D3Q19, 5, 4, 6, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		fresh.EnableAA()
		fresh.SetStep(snap.Step)
		if err := RestoreInto(fresh, &snap); err != nil {
			t.Fatalf("stop %d: RestoreInto: %v", stop, err)
		}
		for s := stop; s < stop+3; s++ {
			stepPair(ref, aa, fresh)
			var fr, fa []float64
			for y := 0; y < ref.NY; y++ {
				for x := 0; x < ref.NX; x++ {
					for z := 0; z < ref.NZ; z++ {
						if ref.Flags[ref.Idx(x, y, z)] != core.Fluid {
							continue
						}
						fr = ref.Populations(x, y, z, fr)
						fa = fresh.Populations(x, y, z, fa)
						for q := range fr {
							if math.Float64bits(fr[q]) != math.Float64bits(fa[q]) {
								t.Fatalf("stop %d resume step %d cell (%d,%d,%d) pop %d: ref %v restored %v",
									stop, s, x, y, z, q, fr[q], fa[q])
							}
						}
					}
				}
			}
		}
	}
}

// TestRestoreIntoPhaseMatrix is the table-driven parity contract: every
// combination of snapshot parity and AA-lattice phase, plus the non-AA
// lattice which accepts any parity.
func TestRestoreIntoPhaseMatrix(t *testing.T) {
	_, aa := aaPair(t, 4, 4, 4)
	b := decomp.Block{NX: 4, NY: 4, NZ: 4}
	snaps := map[int]*Snapshot{} // parity → snapshot
	for s := 1; s <= 2; s++ {
		stepPair(aa)
		var snap Snapshot
		Capture(&snap, aa, b, 0)
		snaps[s&1] = &snap
	}
	cases := []struct {
		name                string
		aaLat               bool
		latStep, snapParity int
		wantMismatch        bool
	}{
		{"aa-even-into-even", true, 2, 0, false},
		{"aa-odd-into-odd", true, 3, 1, false},
		{"aa-odd-into-even", true, 2, 1, true},
		{"aa-even-into-odd", true, 3, 0, true},
		{"plain-even-any-step", false, 3, 0, false},
		{"plain-odd-any-step", false, 2, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := core.NewLattice(&lattice.D3Q19, 4, 4, 4, 0.8)
			if err != nil {
				t.Fatal(err)
			}
			if tc.aaLat {
				l.EnableAA()
			}
			l.SetStep(tc.latStep)
			err = RestoreInto(l, snaps[tc.snapParity])
			if tc.wantMismatch {
				if !errors.Is(err, ErrPhaseMismatch) {
					t.Fatalf("want ErrPhaseMismatch, got %v", err)
				}
				if l.Step() != tc.latStep {
					t.Fatalf("failed restore moved the step counter to %d", l.Step())
				}
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

// TestRestoreIntoGeometryErrors pins the validation failures.
func TestRestoreIntoGeometryErrors(t *testing.T) {
	_, aa := aaPair(t, 4, 4, 4)
	b := decomp.Block{NX: 4, NY: 4, NZ: 4}
	var snap Snapshot
	Capture(&snap, aa, b, 0)

	wrong, err := core.NewLattice(&lattice.D3Q19, 5, 4, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreInto(wrong, &snap); err == nil {
		t.Fatal("restore into mismatched block succeeded")
	}
	short := snap
	short.Pops = snap.Pops[:len(snap.Pops)-1]
	ok, err := core.NewLattice(&lattice.D3Q19, 4, 4, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreInto(ok, &short); err == nil {
		t.Fatal("restore of truncated payload succeeded")
	}
}
