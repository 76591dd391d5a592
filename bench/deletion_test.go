package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoDeletionCandidates keeps the benchmark off every API that
// ROADMAP items 2–3 plan to delete, so the consolidation changes never
// have to edit it (a change that claims a gain may not touch the
// benchmark). The names are assembled from halves so this file does not
// match itself.
func TestNoDeletionCandidates(t *testing.T) {
	banned := []string{
		"StepFused" + "Parallel",
		"Options." + "Kernel",
		"Kernel" + ":",
		"internal/" + "athread",
		"Write" + "Striped",
		"Decompose" + "Weighted2D",
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources to check: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range banned {
			if strings.Contains(string(raw), b) {
				t.Errorf("%s references %q, a ROADMAP deletion candidate", f, b)
			}
		}
	}
}
