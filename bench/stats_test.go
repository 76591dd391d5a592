package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median / statistics.quantiles(xs, n=4)
	// of CPython 3, which the acceptance spread is defined with.
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 3.5, 1.25, 5.75},
		{[]float64{2.5, 7.5}, 5, 1.25, 8.75},
		{[]float64{1, 2, 3}, 2, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %v q1 %v q3 %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a number that reads as a measurement")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false}, {39, 0, false}, // even p75 would leave fewer than 10 beyond
		{40, 75, true}, {99, 75, true},
		{100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true},
		{1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = p%v leaves fewer than 10 samples beyond it", c.n, p)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for p, want := range map[float64]float64{0: 10, 50: 25, 100: 40, 90: 37} {
		if got := percentile(xs, p); !near(got, want) {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

func TestTwoPointRecoversSlopeAndIntercept(t *testing.T) {
	// Synthetic child: 0.4 s fixed cost + 50 ms per step.
	wall := func(steps int) float64 { return 0.4 + 0.05*float64(steps) }
	slope, intercept := twoPoint(wall(51), wall(2), 51, 2)
	if !near(slope, 0.05) || !near(intercept, 0.4) {
		t.Fatalf("slope %v intercept %v, want 0.05 and 0.4", slope, intercept)
	}
	s := cliSamples{long: []float64{wall(51) * 1.5, wall(51), wall(51) * 1.2}, short: []float64{wall(2) * 1.3, wall(2)}}
	mlups, intercept := s.twoPointMLUPS(51)
	if !near(mlups, gridCells/0.05/1e6) || !near(intercept, 0.4) {
		t.Fatalf("mlups %v intercept %v: the fit must go through the fastest children", mlups, intercept)
	}
	if !math.IsNaN(fastest(nil)) {
		t.Error("fastest of nothing must be NaN")
	}
}

func TestSteppingBlocksAreEven(t *testing.T) {
	for name, steps := range map[string]int{
		"kernelBlockSteps": kernelBlockSteps, "kernelBlockSteps40": kernelBlockSteps40,
		"rankBlockSteps": rankBlockSteps, "superviseSteps": superviseSteps,
		"patchStepsLong": patchStepsLong, "patchStepsShort": patchStepsShort,
		"patchMigrateSteps": patchMigrateSteps, "cliProbeSteps": cliProbeSteps, "stepsShort": stepsShort,
	} {
		if steps%2 != 0 || steps < 2 {
			t.Errorf("%s = %d: a timed block must hold both AA parities", name, steps)
		}
	}
	for in, want := range map[int]int{-1: 2, 0: 2, 1: 2, 2: 2, 3: 4, 20: 20, 21: 22} {
		if got := evenBlock(in); got != want {
			t.Errorf("evenBlock(%d) = %d, want %d", in, got, want)
		}
	}
	// The long CLI runs are odd on purpose: long − short must still be a
	// whole number of parity pairs plus one, and the outputs cover both
	// final parities.
	for _, w := range cliWorkloads {
		if w.stepsLong%2 != 1 {
			t.Errorf("%s: stepsLong %d must be odd (stepsShort is even)", w.name, w.stepsLong)
		}
	}
}
