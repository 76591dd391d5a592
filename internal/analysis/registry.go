package analysis

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerLDMBudget,
		AnalyzerSpanPair,
		AnalyzerHotAlloc,
		AnalyzerDetFloat,
		AnalyzerMemTraffic,
	}
}

// ByName resolves a comma-separated rule selection; empty selects all.
// Unknown names are returned rather than silently dropped — a typo in a
// CI rule list must fail the build, not skip the check.
func ByName(names []string) (selected []*Analyzer, unknown []string) {
	if len(names) == 0 {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	for _, n := range names {
		if a, ok := byName[n]; ok {
			selected = append(selected, a)
		} else {
			unknown = append(unknown, n)
		}
	}
	return selected, unknown
}
