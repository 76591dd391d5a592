package conform

import (
	"math/rand"
	"strings"
	"testing"
)

// TestSuiteSmall runs the whole matrix over a handful of generated cases
// (the CI tier runs the full 25+ through cmd/conform).
func TestSuiteSmall(t *testing.T) {
	rep, err := RunSuite(Config{Seed: 1, Cases: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("oracle violation: %s", f)
	}
	if rep.Checks != rep.Cases*rep.Oracles {
		t.Fatalf("checks=%d, want %d", rep.Checks, rep.Cases*rep.Oracles)
	}
	if rep.Passed == 0 {
		t.Fatal("no check passed")
	}
}

// TestSuiteDeterministic: the same seed must replay the same generated
// cases, check counts and outcomes.
func TestSuiteDeterministic(t *testing.T) {
	a, err := RunSuite(Config{Seed: 42, Cases: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuite(Config{Seed: 42, Cases: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Checks != b.Checks || a.Passed != b.Passed || a.Skipped != b.Skipped || len(a.Failures) != len(b.Failures) {
		t.Fatalf("non-deterministic suite: %s vs %s", a.Summary(), b.Summary())
	}
}

func TestSuiteRunFilter(t *testing.T) {
	rep, err := RunSuite(Config{Seed: 3, Cases: 1, Run: `^swlb/`})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Oracles != len(swlbStages()) {
		t.Fatalf("filter matched %d oracles, want %d", rep.Oracles, len(swlbStages()))
	}
	if !rep.OK() {
		t.Fatalf("swlb stages failed: %v", rep.Failures)
	}
	if _, err := RunSuite(Config{Seed: 3, Cases: 1, Run: "no-such-oracle"}); err == nil {
		t.Fatal("unmatched -run pattern accepted")
	}
	if _, err := RunSuite(Config{Seed: 3, Cases: 1, Run: "("}); err == nil {
		t.Fatal("invalid -run regexp accepted")
	}
}

// TestEdgeCaseBattery runs hand-picked adversarial replay strings
// through every oracle: near-critical tau, minimal grids, sticky
// regime/LES/forcing combinations. Everything must pass or skip.
func TestEdgeCaseBattery(t *testing.T) {
	replays := []string{
		"v1;seed=1;grid=8x8x8;tau=0.501;steps=4;bc=periodic",
		"v1;seed=2;grid=8x8x8;tau=5;steps=4;bc=periodic;obst=2",
		"v1;seed=3;grid=2x2x2;tau=0.8;steps=6;bc=periodic",
		"v1;seed=4;grid=2x3x4;tau=0.7;steps=5;bc=lid",
		"v1;seed=5;grid=4x2x3;tau=0.9;steps=5;bc=channel",
		"v1;seed=6;grid=8x8x8;tau=0.55;steps=6;bc=lid;obst=1;smag=0.2",
		"v1;seed=7;grid=8x8x8;tau=0.6;steps=6;bc=channel;obst=2;smag=0.15",
		"v1;seed=8;grid=9x9x9;tau=0.65;steps=6;bc=periodic;obst=2;force=1e-05,-1e-05,1e-05;smag=0.12",
		"v1;seed=9;grid=12x2x12;tau=0.75;steps=4;bc=periodic",
		"v1;seed=10;grid=3x3x3;tau=1.1;steps=8;bc=lid",
	}
	for _, s := range replays {
		c, err := ParseCase(s)
		if err != nil {
			t.Fatalf("battery case %q: %v", s, err)
		}
		x := &Ctx{Case: c}
		for _, o := range Oracles() {
			err := safeCheck(o, x)
			if err != nil && !IsSkip(err) {
				min := Shrink(c, func(cand *Case) bool {
					e := safeCheck(o, &Ctx{Case: cand})
					return e != nil && !IsSkip(e)
				})
				t.Errorf("%s FAILS %s: %v\n  minimal replay: %s", s, o.Name, err, min)
			}
		}
	}
}

// TestFailureStringCarriesReplay ensures the report renders an
// executable reproduction line.
func TestFailureStringCarriesReplay(t *testing.T) {
	c, _ := ParseCase("v1;seed=1;grid=2x2x2;tau=0.8;steps=1")
	f := Failure{Oracle: "mutant/drop-population", Orig: c, Min: c,
		Err: RunOracle("mutant/drop-population", c)}
	s := f.String()
	if !strings.Contains(s, "-replay 'v1;seed=1;grid=2x2x2") || !strings.Contains(s, "mutant/drop-population") {
		t.Fatalf("failure string lacks replay info: %q", s)
	}
}

// TestBackendNamesCoverIssueMatrix pins the acceptance matrix: the rank
// counts {1,2,4,8} across 1-D/2-D decompositions, the 3-D patch tilings,
// every swlb stage, and the mixed rosters whose swlb and gpu workers price
// their patches must all be present. The GPU node model has no backend of
// its own: it only prices a step, so it would run the reference kernel
// against itself.
func TestBackendNamesCoverIssueMatrix(t *testing.T) {
	have := map[string]bool{}
	for _, n := range BackendNames() {
		have[n] = true
	}
	for _, want := range []string{
		"core/unfused", "core/pool",
		"psolve/1x1", "psolve/2x1", "psolve/1x2", "psolve/4x1",
		"psolve/2x2", "psolve/8x1", "psolve/4x2",
		"patch/1x1x2", "patch/1x2x2", "patch/2x2x2",
		"patch/mixed", "patch/mixed-migrate",
		"swlb/mpe-baseline", "swlb/cpe-unfused", "swlb/cpe-fused",
		"swlb/fused-ysharing", "swlb/full",
	} {
		if !have[want] {
			t.Errorf("backend matrix lacks %s", want)
		}
	}
}

// TestRestartOraclesResumeAtBothParities: AA ranks hold their state in a
// different layout after an odd number of steps, so the restart net is
// only as good as the parities it resumes at. Across the default suite
// (cmd/conform's seed 1, 25 cases) each restart property must pick a run
// back up at least once at an odd and once at an even step.
func TestRestartOraclesResumeAtBothParities(t *testing.T) {
	props := map[string]bool{"prop/checkpoint": true, "prop/faultplan": true, "prop/recover-hotswap": true}
	seen := map[string]*[2]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 25; i++ {
		x := &Ctx{Case: GenerateCase(rng)}
		for _, o := range Oracles() {
			if !props[o.Name] {
				continue
			}
			if err := safeCheck(o, x); err != nil && !IsSkip(err) {
				t.Errorf("%s on %s: %v", o.Name, x.Case, err)
			}
		}
		for prop, step := range x.Resumed {
			if seen[prop] == nil {
				seen[prop] = new([2]bool)
			}
			seen[prop][step&1] = true
		}
	}
	for prop := range props {
		if p := seen[prop]; p == nil || !p[0] || !p[1] {
			t.Errorf("%s never resumed at both parities over the default suite: even/odd = %v", prop, p)
		}
	}
}

func TestRunOracleUnknownName(t *testing.T) {
	c, _ := ParseCase("v1;seed=1;grid=2x2x2;tau=0.8;steps=1")
	if err := RunOracle("definitely/not-an-oracle", c); err == nil {
		t.Fatal("unknown oracle accepted")
	}
}
