package main

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// noisySet makes n runs of every end-to-end metric around the given
// centres, with ±noise relative jitter, for one workload.
func noisySet(rng *rand.Rand, n int, centre map[string]float64, noise float64) map[string]map[string][]float64 {
	m := map[string][]float64{}
	for i := 0; i < n; i++ {
		for name, c := range centre {
			m[name] = append(m[name], c*(1+noise*(2*rng.Float64()-1)))
		}
		m["failed_frac"] = append(m["failed_frac"], 0)
	}
	return map[string]map[string][]float64{"cli-single": m}
}

var centre = map[string]float64{"mlups": 20, "job_latency_s": 3, "rss_mb": 600, "setup_s": 0.5}

func TestCompareFailsOnPlantedRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	parent := noisySet(rng, 10, centre, 0.01)
	slower := map[string]float64{}
	for k, v := range centre {
		slower[k] = v
	}
	mlups, _ := findMetric(endToEnd, "mlups")
	drop := mlups.Bound + 0.05 // five points beyond what the bound lets through
	slower["mlups"] = centre["mlups"] * (1 - drop)
	change := noisySet(rng, 10, slower, 0.01)
	var out bytes.Buffer
	if compareSeries(&out, parent, change) {
		t.Fatalf("a %.0f%% mlups regression passed a %.0f%% bound:\n%s", drop*100, mlups.Bound*100, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, " mlups ") && !strings.HasSuffix(line, string(verdictWorse)) {
			t.Errorf("mlups row not marked worse: %q", line)
		}
		if strings.Contains(line, "rss_mb") && !strings.HasSuffix(line, string(verdictOK)) {
			t.Errorf("untouched metric not ok: %q", line)
		}
	}
}

func TestComparePassesOnNoisyButEqualSets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var out bytes.Buffer
	if !compareSeries(&out, noisySet(rng, 10, centre, 0.02), noisySet(rng, 10, centre, 0.02)) {
		t.Fatalf("two sets of the same system disagreed:\n%s", out.String())
	}
	if strings.Contains(out.String(), string(verdictWorse)) || strings.Contains(out.String(), string(verdictUnresolved)) {
		t.Fatalf("expected every row ok:\n%s", out.String())
	}
}

func TestJudge(t *testing.T) {
	mlups, _ := findMetric(endToEnd, "mlups")
	setup, _ := findMetric(endToEnd, "setup_s")
	flat := func(v float64) []float64 { return []float64{v, v, v, v} }
	for _, c := range []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           verdict
	}{
		{"higher-is-better gain", mlups, flat(20), flat(30), verdictOK},
		{"within bound", mlups, flat(20), flat(20 * (1 - 0.9*mlups.Bound)), verdictOK},
		{"beyond bound", mlups, flat(20), flat(20 * (1 - 1.1*mlups.Bound)), verdictWorse},
		{"spread wider than bound", mlups, []float64{10, 20, 30, 40}, flat(25), verdictUnresolved},
		{"setup under the absolute floor", setup, flat(0.10), flat(0.15), verdictOK},
		{"setup beyond floor and bound", setup, flat(0.5), flat(0.8), verdictWorse},
	} {
		if _, got := judge(c.d, c.parent, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFailsOnMoreFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parent, change := noisySet(rng, 4, centre, 0.01), noisySet(rng, 4, centre, 0.01)
	change["cli-single"]["failed_frac"] = []float64{0.1, 0.1, 0.1, 0.1}
	var out bytes.Buffer
	if compareSeries(&out, parent, change) {
		t.Fatalf("a higher failed_frac passed:\n%s", out.String())
	}
}
