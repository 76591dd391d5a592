package psolve

import (
	"fmt"
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

// buddyFlip corrupts the one buddy message a rank sends in a wave, the
// one under tag: the way an L2 record goes bad while its holder lives.
type buddyFlip struct{ tag int }

func (h buddyFlip) OnSend(src, dst, tag int, data []float64, aux []byte) int {
	if tag == h.tag {
		resiltest.Flip(data)
	}
	return 1
}

// oracleScenario is one world, group size, level set and tear; its
// verdict is the bitmask of dead sets (bit i: the ranks of i's set bits)
// the store repairs from memory.
type oracleScenario struct {
	px, py, group int
	levels        resil.Levels
	tear          string // "none", "l2flip:s", "l3tear:h", "l1rot:h" or "l2rot:h" (see resiltest.Tear)
}

func (sc oracleScenario) key() string {
	return fmt.Sprintf("%dx%d g%d L%s %s", sc.px, sc.py, sc.group, sc.levels, sc.tear)
}

// bound is the scenario whose golden verdict sc must reach.
func (sc oracleScenario) bound() oracleScenario {
	sc.tear = resiltest.Bound(sc.tear, sc.levels)
	return sc
}

// oracleScenarios lists rank worlds 2x1, 3x1, 4x1, 2x2 and 5x1, parity
// groups of 2 to 5 and every level set with an in-memory level, each
// untouched, with one buddy message corrupted in flight, with one replica
// torn, or with one committed L1 or L2 record rotted after the wave.
func oracleScenarios() []oracleScenario {
	var out []oracleScenario
	for _, w := range [][2]int{{2, 1}, {3, 1}, {4, 1}, {2, 2}, {5, 1}} {
		ranks := w[0] * w[1]
		for g := 2; g <= 5; g++ {
			for _, lv := range resiltest.LevelSets {
				tears := []string{"none"}
				for r := 0; r < ranks; r++ {
					if lv.Has(resil.L2) {
						tears = append(tears, fmt.Sprintf("l2flip:%d", r))
					}
					tears = append(tears, fmt.Sprintf("l3tear:%d", r))
				}
				tears = append(tears, resiltest.RotTears(ranks, g, lv)...)
				for _, tear := range tears {
					out = append(out, oracleScenario{w[0], w[1], g, lv, tear})
				}
			}
		}
	}
	return out
}

// TestRecoverabilityOracle runs one snapshot wave for every scenario and
// asks the store for a plan for every dead set. Every plan made must
// restore every block bitwise as it was captured, and every scenario
// must repair every dead set full-group parity repaired — a rotted kept
// record against full-group parity without its holder's replica, the one
// copy of the clean record a replica that leaves out kept members no
// longer has.
func TestRecoverabilityOracle(t *testing.T) {
	scenarios := oracleScenarios()
	cases := make([]resiltest.Case, len(scenarios))
	for i, sc := range scenarios {
		cases[i] = resiltest.Case{Key: sc.key(), Bound: sc.bound().key(), Verdict: oracleVerdict(t, sc)}
	}
	gained, lost := resiltest.Compare(t, oracleGolden, cases)
	// A buddy copy corrupted in flight used to be folded into its holder's
	// replica; now no replica folds what its holder keeps, so some losses
	// the poisoned replica could not repair are repaired.
	if gained == 0 {
		t.Error("no scenario repairs more than with full-group parity: a corrupted buddy copy still poisons its holder's replica")
	}
	t.Logf("%d scenarios: %d repair dead sets full-group parity did not, %d (a kept record rotted) miss some it did",
		len(scenarios), gained, lost)
}

// oracleVerdict runs sc's wave and returns the dead sets the store
// repairs, failing the test on any plan that restores a block wrongly.
func oracleVerdict(t *testing.T, sc oracleScenario) uint64 {
	t.Helper()
	opts := Options{
		GNX: 10, GNY: 6, GNZ: 4, PX: sc.px, PY: sc.py,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Walls: func(gx, gy, gz int) bool { return gx == 5 && gy == 2 && gz >= 1 },
		Init:  shearInit,
	}
	ranks := sc.px * sc.py
	st, err := (&rankWorld{opts}).NewStore(sc.group)
	if err != nil {
		t.Fatal(err)
	}
	world, err := mpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	var flipped int
	if n, _ := fmt.Sscanf(sc.tear, "l2flip:%d", &flipped); n == 1 {
		world.SetFaultHook(buddyFlip{st.Tag(tagSnap, resil.L2, flipped)})
	}
	truth := make([]resil.Snapshot, ranks)
	var mu sync.Mutex
	err = mpi.RunWorld(world, func(c *mpi.Comm) error {
		s, err := New(c, opts)
		if err != nil {
			return err
		}
		s.Step()
		if err := s.ResilCapture(st, sc.levels); err != nil {
			return err
		}
		mu.Lock()
		resil.Capture(&truth[c.Rank()], s.Lat, s.Block, c.Rank())
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", sc.key(), err)
	}
	self := make([]int, ranks) // every rank holds its own records
	for r := range self {
		self[r] = r
	}
	resiltest.Tear(st, sc.tear, truth[0].Step, self)
	return resiltest.Verdict(t, sc.key(), ranks, st.RecoveryPlan, truth)
}
