package conform

import (
	"math"
	"math/rand"
	"testing"

	"sunwaylb/internal/swlb"
)

// TestSwlbPriceMatchesStep pins the pricing contract run paths rely on:
// on every case of the default suite (seed 1, 25 cases) and every swlb
// stage, an engine that prices an AA copy of the case's lattice returns,
// step for step, the time the functional Step returns on the
// double-buffer lattice with the same flags, ends with the same
// core-group time, traffic and Report, and leaves the lattice it prices
// untouched. Both engines are built after the first condition pass, as
// the swlb backends and the ranks price.
func TestSwlbPriceMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 25; i++ {
		c := GenerateCase(rng)
		bcs := c.bcSet(c.conds())
		for _, st := range swlbStages() {
			stepped, err := c.newLattice()
			if err != nil {
				t.Fatal(err)
			}
			priced, err := c.newLattice()
			if err != nil {
				t.Fatal(err)
			}
			bcs.Apply(stepped)
			bcs.Apply(priced)
			priced.EnableAA()
			before := append([]float64(nil), priced.Src()...)
			es, err := swlb.New(stepped, testChip(), st.Opt)
			if err != nil {
				t.Fatal(err)
			}
			ep, err := swlb.New(priced, testChip(), st.Opt)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < c.Steps; s++ {
				if s > 0 {
					bcs.Apply(stepped)
				}
				if ts, tp := es.Step(), ep.Price(); math.Float64bits(ts) != math.Float64bits(tp) {
					t.Fatalf("%s, %s step %d: Step %v, Price %v", c, st.Name, s, ts, tp)
				}
			}
			if rs, rp := es.Report(c.Steps), ep.Report(c.Steps); es.CG.Counters != ep.CG.Counters || rs != rp {
				t.Errorf("%s, %s: counters %+v / %+v, Report %+v / %+v, want equal",
					c, st.Name, es.CG.Counters, ep.CG.Counters, rs, rp)
			}
			for j, v := range priced.Src() {
				if math.Float64bits(v) != math.Float64bits(before[j]) || priced.Step() != 0 {
					t.Fatalf("%s, %s: pricing changed the lattice (slot %d, step %d)", c, st.Name, j, priced.Step())
				}
			}
		}
	}
}
