// Package resiltest holds the recoverability oracle's shared half: the
// level sets it covers, the tears it applies to a store after a wave,
// the dead-set sweep that turns a store into a verdict, and the golden
// table of verdicts each world's oracle is held to. The worlds (rank
// grids in psolve, patch worlds in patch) keep their own scenario lists
// and waves.
package resiltest

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"sunwaylb/internal/decomp"
	"sunwaylb/internal/resil"
)

// LevelSets is every level mask with an in-memory level.
var LevelSets = []resil.Levels{
	resil.L1, resil.L2, resil.L3,
	resil.L1 | resil.L2, resil.L1 | resil.L3, resil.L2 | resil.L3,
	resil.L1 | resil.L2 | resil.L3,
}

// Flip flips one bit of one payload word: the corruption every oracle
// injects, in flight or in a committed record.
func Flip(data []float64) {
	i := len(data) / 3
	data[i] = math.Float64frombits(math.Float64bits(data[i]) ^ 1<<21)
}

// RotTears lists the tears that rot one committed kept record after the
// wave — "l1rot:h" (holder h's own record) when L1 is on, "l2rot:h" (the
// buddy copy h holds) when L2 is on and h's parity group has a second
// member — for n holders in parity groups of the given size.
func RotTears(n, group int, lv resil.Levels) []string {
	groups, err := resil.NewStore(n, group, make([]decomp.Block, n))
	if err != nil {
		panic(err)
	}
	var tears []string
	for h := 0; h < n; h++ {
		if lv.Has(resil.L1) {
			tears = append(tears, fmt.Sprintf("l1rot:%d", h))
		}
		if lv.Has(resil.L2) && groups.Buddy(h) != h {
			tears = append(tears, fmt.Sprintf("l2rot:%d", h))
		}
	}
	return tears
}

// Bound returns the tear whose golden verdict a scenario with the given
// tear and levels must reach. A rotted kept record is the one state in
// which a replica that leaves out what its owner keeps knows less than a
// full-group one: the full-group replica was folded from the clean copy.
// So a rot is held to the full-group verdict with the rotted record's
// owner's replicas of that group torn as well ("+l3"); every other tear
// is held to its own verdict.
func Bound(tear string, lv resil.Levels) string {
	if lv.Has(resil.L3) && (strings.HasPrefix(tear, "l1rot:") || strings.HasPrefix(tear, "l2rot:")) {
		return tear + "+l3"
	}
	return tear
}

// Tear applies a tear after the wave at step: "none" and in-flight flips
// (applied during the wave) leave the store as it is, "l3tear:h" leaves
// h's replica torn, "l1rot:h" and "l2rot:h" rot h's committed record, and
// a "+l3" suffix also tears the replica of every holder of h's parity
// group with h's owner (owner[r] is the worker whose memory holds r's
// records).
func Tear(st *resil.Store, tear string, step int, owner []int) {
	tear, l3, _ := strings.Cut(tear, "+")
	kind, arg, ok := strings.Cut(tear, ":")
	if !ok {
		return
	}
	h, err := strconv.Atoi(arg)
	if err != nil {
		panic(fmt.Sprintf("resiltest: tear %q", tear))
	}
	switch kind {
	case "l3tear":
		st.Slot(resil.L3, h, step) // left unfilled: torn
	case "l1rot", "l2rot":
		lv := resil.L1
		if kind == "l2rot" {
			lv = resil.L2
		}
		s := st.Slot(lv, h, step)
		Flip(s.Pops) // the checksum it was sealed with stays
		st.Commit(lv, s, step)
	}
	if l3 == "l3" {
		lo, hi := st.Group(h)
		for r := lo; r < hi; r++ {
			if owner[r] == owner[h] {
				st.Slot(resil.L3, r, step)
			}
		}
	}
}

// Verdict asks plan for a recovery of every dead set of n units (bit i
// of a mask: unit i dead) and returns the bitmask of the masks it
// repairs. Every plan made must restore every block of truth bitwise, at
// its step; scenario names the failures.
func Verdict(t *testing.T, scenario string, n int, plan func(dead []int) (*resil.Recovery, bool), truth []resil.Snapshot) uint64 {
	t.Helper()
	var verdict uint64
	for mask := 0; mask < 1<<n; mask++ {
		var dead []int
		for r := 0; r < n; r++ {
			if mask&(1<<r) != 0 {
				dead = append(dead, r)
			}
		}
		rec, ok := plan(dead)
		if !ok {
			continue
		}
		verdict |= 1 << mask
		if rec.Step != truth[0].Step {
			t.Errorf("%s dead %v: plan at step %d, want %d", scenario, dead, rec.Step, truth[0].Step)
		}
		for i := range truth {
			if b := rec.Blocks[i]; b == nil || !SameBlock(b, &truth[i]) {
				t.Errorf("%s dead %v: block %d restored wrong", scenario, dead, i)
			}
		}
	}
	return verdict
}

// SameBlock reports whether two snapshots hold bitwise the same block.
func SameBlock(a, b *resil.Snapshot) bool {
	if a.X0 != b.X0 || a.Y0 != b.Y0 || a.Z0 != b.Z0 || a.NX != b.NX || a.NY != b.NY || a.NZ != b.NZ ||
		a.Q != b.Q || len(a.Pops) != len(b.Pops) || string(a.Flags) != string(b.Flags) {
		return false
	}
	for i, v := range a.Pops {
		if math.Float64bits(v) != math.Float64bits(b.Pops[i]) {
			return false
		}
	}
	return true
}

// Case is one scenario's verdict and the golden entries it is compared
// with: Key names its own, Bound the one it must reach (see Bound).
type Case struct {
	Key, Bound string
	Verdict    uint64
}

// Compare holds every case to the golden table at path, a line per
// scenario key with the hexadecimal bitmask of the dead sets repaired
// from memory: a case must repair every dead set its Bound entry
// repairs. It returns how many cases repair dead sets their own entry
// does not (gained), and how many miss dead sets their own entry
// repairs (lost; only a case whose Bound differs from its Key can).
func Compare(t *testing.T, path string, cases []Case) (gained, lost int) {
	t.Helper()
	golden := readGolden(t, path)
	for _, c := range cases {
		own, ok1 := golden[c.Key]
		bound, ok2 := golden[c.Bound]
		if !ok1 || !ok2 {
			t.Errorf("%s: no golden verdict for %q or %q", path, c.Key, c.Bound)
			continue
		}
		if miss := bound &^ c.Verdict; miss != 0 {
			t.Errorf("%s: dead sets %#x were repaired with full-group parity (%s) and are not now (verdicts %#x, golden %#x)",
				c.Key, miss, c.Bound, c.Verdict, bound)
		}
		if c.Verdict&^own != 0 {
			gained++
		}
		if own&^c.Verdict != 0 {
			lost++
		}
	}
	return gained, lost
}

func readGolden(t *testing.T, path string) map[string]uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]uint64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseUint(line[i+1:], 0, 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
