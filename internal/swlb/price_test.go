package swlb

import (
	"math"
	"testing"

	"sunwaylb/internal/sunway"
)

// TestStepTimeDependsOnGeometryOnly is what lets a run path price a step
// instead of stepping it: two lattices with the same flags whose
// populations differ by a factor of 1.37 take the same modelled time and
// move the same traffic on every step, under the optimised and the
// baseline options.
func TestStepTimeDependsOnGeometryOnly(t *testing.T) {
	for _, opt := range []Options{DefaultOptions(), BaselineOptions()} {
		a := buildLat(t, 16, 12, 20, true)
		b := buildLat(t, 16, 12, 20, true)
		for i := range b.F[0] {
			b.F[0][i] *= 1.37
		}
		ea, err := New(a, testSpec(), opt)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := New(b, testSpec(), opt)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 5; s++ {
			a.PeriodicAll()
			b.PeriodicAll()
			ta, tb := ea.Step(), eb.Step()
			if math.Float64bits(ta) != math.Float64bits(tb) || ea.LastCPETime != eb.LastCPETime || ea.LastMPETime != eb.LastMPETime {
				t.Fatalf("%+v step %d: times %v / %v (cpe %v / %v, mpe %v / %v), want equal",
					opt, s, ta, tb, ea.LastCPETime, eb.LastCPETime, ea.LastMPETime, eb.LastMPETime)
			}
		}
		if ea.CG.Counters != eb.CG.Counters || ea.CG.TotalTime != eb.CG.TotalTime {
			t.Errorf("%+v: counters %+v / %+v, CG time %v / %v, want equal",
				opt, ea.CG.Counters, eb.CG.Counters, ea.CG.TotalTime, eb.CG.TotalTime)
		}
	}
}

// TestRebuildReprices: a geometry change after the first price is priced
// anew at the next Price, on the flags Rebuild sees.
func TestRebuildReprices(t *testing.T) {
	open := buildLat(t, 8, 8, 12, false)
	open.PeriodicAll()
	e, err := New(open, sunway.TestChip(4, 64*1024), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	clean := e.Price()
	if e.MixedColumns() != 0 {
		t.Fatalf("open box: %d mixed columns, want 0", e.MixedColumns())
	}
	open.SetWall(3, 3, 5)
	if p := e.Price(); p != clean {
		t.Fatalf("price moved to %v before Rebuild", p)
	}
	e.Rebuild()
	if p := e.Price(); p == clean || e.MixedColumns() == 0 {
		t.Errorf("after a wall and Rebuild: price %v (was %v), %d mixed columns; want a new price over mixed columns",
			p, clean, e.MixedColumns())
	}
}
