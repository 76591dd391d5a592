package patch

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"sunwaylb/internal/mpi"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/resil/resiltest"
)

// oracleGolden is the recoverability table the oracle checks against. It
// was recorded at commit 09d4c2d, whose replicas were the XOR of their
// whole group, so it holds the verdicts of full-group parity; it is fixed
// data, not regenerated from later builds.
const oracleGolden = "testdata/recover_oracle.golden"

// parityFlip corrupts the parity messages that carry one patch's record.
type parityFlip struct{ tag int }

func (h parityFlip) OnSend(src, dst, tag int, data []float64, aux []byte) int {
	if tag == h.tag {
		resiltest.Flip(data)
	}
	return 1
}

// oracleScenario is one worker count, owner layout, group size, level set
// and tear; its verdict is the bitmask of dead worker sets (bit i: the
// workers of i's set bits) the store repairs from memory.
type oracleScenario struct {
	workers int
	layout  string // "cyclic" (patch p on worker p mod W) or "blocked"
	group   int
	levels  resil.Levels
	tear    string // "none", "l3flip:p", "l3tear:p", "l1rot:p" or "l2rot:p" (see resiltest.Tear)
}

func (sc oracleScenario) key() string {
	return fmt.Sprintf("w%d %s g%d L%s %s", sc.workers, sc.layout, sc.group, sc.levels, sc.tear)
}

// bound is the scenario whose golden verdict sc must reach.
func (sc oracleScenario) bound() oracleScenario {
	sc.tear = resiltest.Bound(sc.tear, sc.levels)
	return sc
}

// oracleScenarios lists six uneven patches on 2 and 3 workers, dealt
// cyclically or in blocks, parity groups of 2 to 5 and every level set
// with an in-memory level, each untouched, with one patch's parity
// messages corrupted in flight, with one patch's replica torn, or with
// one committed L1 or L2 record rotted after the wave.
func oracleScenarios() []oracleScenario {
	var out []oracleScenario
	for _, workers := range []int{2, 3} {
		for _, layout := range []string{"cyclic", "blocked"} {
			for g := 2; g <= 5; g++ {
				for _, lv := range resiltest.LevelSets {
					tears := []string{"none"}
					for p := 0; p < 6; p++ {
						if lv.Has(resil.L3) {
							tears = append(tears, fmt.Sprintf("l3flip:%d", p))
						}
						tears = append(tears, fmt.Sprintf("l3tear:%d", p))
					}
					tears = append(tears, resiltest.RotTears(6, g, lv)...)
					for _, tear := range tears {
						out = append(out, oracleScenario{workers, layout, g, lv, tear})
					}
				}
			}
		}
	}
	return out
}

// TestRecoverabilityOracle runs one snapshot wave for every scenario and
// asks the store for a plan for every dead worker set. Every plan made
// must restore every patch bitwise as it was captured, and every
// scenario must repair every dead set full-group parity repaired — a
// rotted kept record against full-group parity without its owner's
// replicas of that group.
func TestRecoverabilityOracle(t *testing.T) {
	scenarios := oracleScenarios()
	cases := make([]resiltest.Case, len(scenarios))
	for i, sc := range scenarios {
		cases[i] = resiltest.Case{Key: sc.key(), Bound: sc.bound().key(), Verdict: oracleVerdict(t, sc)}
	}
	gained, lost := resiltest.Compare(t, oracleGolden, cases)
	t.Logf("%d scenarios: %d repair dead sets full-group parity did not, %d (a kept record rotted) miss some it did",
		len(scenarios), gained, lost)
}

// oracleVerdict runs sc's wave and returns the dead worker sets the store
// repairs, failing the test on any plan that restores a patch wrongly.
func oracleVerdict(t *testing.T, sc oracleScenario) uint64 {
	t.Helper()
	w, err := NewWorld(Options{
		GNX: 13, GNY: 6, GNZ: 4, TX: 6,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Walls: func(gx, gy, gz int) bool { return gx == 5 && gy == 2 && gz >= 1 },
		Init: func(gx, gy, gz int) (rho, ux, uy, uz float64) {
			return 1 + 0.01*math.Sin(0.3*float64(gx)), 0.03 * math.Sin(0.2*float64(gy)), 0.02 * math.Cos(0.25*float64(gz)), 0
		},
		Workers: make([]Worker, sc.workers),
	})
	if err != nil {
		t.Fatal(err)
	}
	P := w.til.P()
	if sc.layout == "blocked" {
		for p := range w.owner {
			w.owner[p] = p * sc.workers / P
		}
	}
	st, err := w.NewStore(sc.group)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := mpi.NewWorld(sc.workers)
	if err != nil {
		t.Fatal(err)
	}
	var flipped int
	if n, _ := fmt.Sscanf(sc.tear, "l3flip:%d", &flipped); n == 1 {
		mw.SetFaultHook(parityFlip{st.Tag(w.til.snapTags(), resil.L3, flipped)})
	}
	truth := make([]resil.Snapshot, P)
	var mu sync.Mutex
	err = mpi.RunWorld(mw, func(c *mpi.Comm) error {
		n, err := newNode(w, c, nil, 2, 1)
		if err != nil {
			return err
		}
		n.Step()
		if err := n.ResilCapture(st, sc.levels); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for _, o := range n.owned {
			resil.Capture(&truth[o.ID], o.Lat, o.Block, o.ID)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", sc.key(), err)
	}
	resiltest.Tear(st, sc.tear, truth[0].Step, w.owner)
	plan := func(dead []int) (*resil.Recovery, bool) {
		return st.RecoveryPlan(patchesOwnedBy(w.owner, dead))
	}
	return resiltest.Verdict(t, sc.key(), sc.workers, plan, truth)
}
