package analysis

// Golden-file analyzer tests: each rule has a bad/ fixture whose expected
// diagnostics are asserted line-by-line through trailing `// want "…"`
// markers, and a good/ fixture that must stay silent. A final self-check
// runs the full suite over the repository itself, which must be clean —
// the same gate scripts/ci.sh enforces.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

func loadFixture(t *testing.T, l *Loader, rule, variant string) *Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", rule, variant))
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s/%s: %v", rule, variant, err)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// wantMarkers parses the `// want "substring"` expectations of every file
// in the fixture directory, keyed by absolute filename and line.
func wantMarkers(t *testing.T, pkg *Package) map[string]map[int][]string {
	t.Helper()
	out := make(map[string]map[int][]string)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read fixture %s: %v", name, err)
		}
		byLine := make(map[int][]string)
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				byLine[i+1] = append(byLine[i+1], m[1])
			}
		}
		if len(byLine) > 0 {
			out[name] = byLine
		}
	}
	return out
}

// checkFindings matches findings against want markers: every finding must
// be expected, and every expectation must be hit.
func checkFindings(t *testing.T, findings []Finding, wants map[string]map[int][]string) {
	t.Helper()
	type slot struct {
		file string
		line int
		idx  int
	}
	used := make(map[slot]bool)
	for _, f := range findings {
		matched := false
		for i, w := range wants[f.Pos.Filename][f.Pos.Line] {
			s := slot{f.Pos.Filename, f.Pos.Line, i}
			if !used[s] && strings.Contains(f.Message, w) {
				used[s] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for file, lines := range wants {
		for line, ws := range lines {
			for i, w := range ws {
				if !used[slot{file, line, i}] {
					t.Errorf("%s:%d: expected finding containing %q, got none", filepath.Base(file), line, w)
				}
			}
		}
	}
}

func TestAnalyzersGolden(t *testing.T) {
	l := newTestLoader(t)
	for _, an := range All() {
		an := an
		t.Run(an.Name, func(t *testing.T) {
			bad := loadFixture(t, l, an.Name, "bad")
			checkFindings(t, Run([]*Package{bad}, []*Analyzer{an}), wantMarkers(t, bad))

			good := loadFixture(t, l, an.Name, "good")
			for _, f := range Run([]*Package{good}, []*Analyzer{an}) {
				t.Errorf("good fixture produced a finding: %s", f)
			}
		})
	}
}

// TestSuppressions exercises //lint:ignore: trailing and preceding
// suppressions silence the finding, an unsuppressed site survives, and a
// malformed comment is reported under the "suppress" pseudo-rule.
func TestSuppressions(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "suppress", "bad")
	findings := Run([]*Package{pkg}, []*Analyzer{AnalyzerDetFloat})

	var det, sup []Finding
	for _, f := range findings {
		switch f.Rule {
		case "detfloat":
			det = append(det, f)
		case "suppress":
			sup = append(sup, f)
		default:
			t.Errorf("unexpected rule %q: %s", f.Rule, f)
		}
	}
	checkFindings(t, det, wantMarkers(t, pkg))
	if len(sup) != 1 || !strings.Contains(sup[0].Message, "malformed") {
		t.Errorf("want exactly one malformed-suppression finding, got %v", sup)
	}
}

func TestByName(t *testing.T) {
	if got, unknown := ByName(nil); len(got) != len(All()) || len(unknown) != 0 {
		t.Fatalf("ByName(nil) = %d analyzers (unknown %v), want %d", len(got), unknown, len(All()))
	}
	got, unknown := ByName([]string{"detfloat", "hotalloc"})
	if len(got) != 2 || got[0].Name != "detfloat" || got[1].Name != "hotalloc" || len(unknown) != 0 {
		t.Fatalf("ByName subset = %v, unknown %v", got, unknown)
	}
	got, unknown = ByName([]string{"detfloat", "nosuch"})
	if len(got) != 1 || len(unknown) != 1 || unknown[0] != "nosuch" {
		t.Fatalf("ByName(detfloat,nosuch) = %v, unknown %v; want the typo surfaced", got, unknown)
	}
}

// TestCIRuleListsKnown: every -rules list scripts/ci.sh passes to lbmvet
// names only registered rules, so a rule removed from the suite fails
// here, in tier 1, and not only in the rarely run tier that names it.
func TestCIRuleListsKnown(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "scripts", "ci.sh"))
	if err != nil {
		t.Fatal(err)
	}
	lists := regexp.MustCompile(`-rules[ =]+([^\s]+)`).FindAllStringSubmatch(string(data), -1)
	if len(lists) == 0 {
		t.Fatal("scripts/ci.sh passes no -rules list")
	}
	for _, m := range lists {
		if _, unknown := ByName(strings.Split(m[1], ",")); len(unknown) > 0 {
			t.Errorf("scripts/ci.sh: -rules %s names unknown rule(s) %v", m[1], unknown)
		}
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in  string
		out int64
		ok  bool
	}{
		{"65536", 65536, true},
		{"64KiB", 65536, true},
		{"64KB", 65536, true},
		{"64k", 65536, true},
		{"1MiB", 1 << 20, true},
		{"70", 70, true},
		{"", 0, false},
		{"seventy", 0, false},
	}
	for _, c := range cases {
		got, ok := parseByteSize(c.in)
		if got != c.out || ok != c.ok {
			t.Errorf("parseByteSize(%q) = %d, %v; want %d, %v", c.in, got, ok, c.out, c.ok)
		}
	}
}

// TestRepositoryClean is the self-check: the full analyzer suite over the
// whole module must report nothing. This is the same invariant the
// `scripts/ci.sh analyze` tier enforces with cmd/lbmvet.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	l := newTestLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	for _, f := range Run(pkgs, All()) {
		t.Errorf("repository finding: %s", f)
	}
}
