// Lbmvet is SunwayLB's domain-specific static-analysis suite: a
// multichecker that enforces the simulator's correctness contracts across
// the module — LDM budgets on CPE kernels, trace span pairing and
// nil-safety, hot-loop allocation freedom, float determinism, and
// per-cell memory-traffic budgets. See DESIGN.md "Static-analysis
// contracts" for the rule-to-paper mapping and README "Static analysis"
// for usage.
//
// Usage:
//
//	go run ./cmd/lbmvet ./...            # whole module
//	go run ./cmd/lbmvet internal/swlb    # one package directory
//	go run ./cmd/lbmvet -rules hotalloc,detfloat ./...
//	go run ./cmd/lbmvet -json ./...      # machine-readable findings
//	go run ./cmd/lbmvet -list -json      # machine-readable rule inventory
//
// Suppress an individual finding with a trailing or preceding comment:
//
//	//lint:ignore <rule> <reason>
//
// Exit status: 0 clean, 1 findings, 2 load/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sunwaylb/internal/analysis"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array")
		rules   = flag.String("rules", "", "comma-separated rule subset (default: all)")
		list    = flag.Bool("list", false, "list the available rules and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lbmvet [-json] [-rules r1,r2] patterns...\n\nrules:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		if *jsonOut {
			type rule struct {
				Name string `json:"name"`
				Doc  string `json:"doc"`
			}
			var rules []rule
			for _, a := range analysis.All() {
				rules = append(rules, rule{a.Name, a.Doc})
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rules); err != nil {
				fatal(err)
			}
			return
		}
		for _, a := range analysis.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}

	var selected []string
	if *rules != "" {
		selected = strings.Split(*rules, ",")
	}
	analyzers, unknown := analysis.ByName(selected)
	if len(unknown) > 0 {
		var known []string
		for _, a := range analysis.All() {
			known = append(known, a.Name)
		}
		fatal(fmt.Errorf("unknown rule(s) %s in -rules %q; known rules: %s",
			strings.Join(unknown, ","), *rules, strings.Join(known, ",")))
	}

	findings := analysis.Run(pkgs, analyzers)
	// Report repo-relative paths so output is stable across checkouts.
	for i := range findings {
		if rel, err := filepath.Rel(loader.ModuleDir, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = rel
			findings[i].Pos.Filename = rel
		}
	}

	if *jsonOut {
		out := findings
		if out == nil {
			out = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
		if len(findings) == 0 {
			fmt.Printf("lbmvet: %d packages clean\n", len(pkgs))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lbmvet: %v\n", err)
	os.Exit(2)
}
