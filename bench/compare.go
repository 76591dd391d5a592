package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is the outcome of comparing one workload × metric pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the change's runs of one metric against the parent's.
// It is worse when the change's median is worse than the parent's by more
// than the bound (for setup_s: and by more than setupFloorSec);
// unresolved when either side's own interquartile spread is wider than
// the bound, so that a difference of that size could not be told from
// noise; ok otherwise.
func judge(d metricDef, parent, change []float64) (ratio float64, v verdict) {
	mp, mc := median(parent), median(change)
	ratio = mc / mp
	worseBy := ratio - 1 // lower is better: a larger value is worse
	if d.Better == "higher" {
		worseBy = 1 - ratio
	}
	if worseBy > d.Bound && !(d.Name == "setup_s" && math.Abs(mc-mp) <= setupFloorSec) {
		return ratio, verdictWorse
	}
	for _, side := range [][]float64{parent, change} {
		if len(side) >= 2 && spread(side) > d.Bound {
			return ratio, verdictUnresolved
		}
	}
	return ratio, verdictOK
}

// compareFiles prints, per workload × end-to-end metric, the parent's and
// the change's median, their ratio with its base, the bound and the
// verdict. It reports false on any "worse" or on a higher failed_frac.
func compareFiles(w io.Writer, parentPath, changePath string) (bool, error) {
	parent, err := readResults(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readResults(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "parent: %s\n        %s\nchange: %s\n        %s\n", parentPath, parent.Host, changePath, change.Host)
	if parent.Host.NumCPU != change.Host.NumCPU || parent.Host.CPUModel != change.Host.CPUModel {
		fmt.Fprintln(w, "WARNING: the two files come from different hosts; the ratios below compare machines, not commits")
	}
	ok := compareSeries(w, parent.series(), change.series())
	return ok, nil
}

func compareSeries(w io.Writer, parent, change map[string]map[string][]float64) bool {
	ok := true
	fmt.Fprintf(w, "\n%-18s %-18s %5s %12s %12s %18s %6s  %s\n",
		"workload", "metric", "runs", "parent p50", "change p50", "change/parent", "bound", "verdict")
	for _, workload := range sortedKeys(parent) {
		for _, d := range endToEnd {
			p, c := parent[workload][d.Name], change[workload][d.Name]
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-18s %-18s %5s %12s %12s %18s %6s  %s\n", workload, d.Name,
					fmt.Sprintf("%d/%d", len(p), len(c)), "-", "-", "-", "-", "missing on one side")
				ok = false
				continue
			}
			ratio, v := judge(d, p, c)
			if v == verdictWorse {
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-18s %5s %12.5g %12.5g %9.4f of %-6.4g %5.0f%%  %s\n", workload, d.Name,
				fmt.Sprintf("%d/%d", len(p), len(c)), median(p), median(c), ratio, median(p), d.Bound*100, v)
		}
		// Any increase in the share of failed operations is a regression.
		pf, cf := median(parent[workload]["failed_frac"]), median(change[workload]["failed_frac"])
		v := verdictOK
		if cf > pf {
			v, ok = verdictWorse, false
		}
		fmt.Fprintf(w, "%-18s %-18s %5s %12.5g %12.5g %18s %6s  %s\n", workload, "failed_frac",
			fmt.Sprintf("%d/%d", len(parent[workload]["failed_frac"]), len(change[workload]["failed_frac"])),
			pf, cf, "-", "any", v)
	}
	return ok
}
