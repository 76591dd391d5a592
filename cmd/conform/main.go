// Command conform runs the differential + metamorphic conformance suite:
// seeded random scenarios through every backend of the matrix (serial
// core, swlb optimization stages, multi-rank decompositions, patch worlds
// whose swlb and gpu workers price their steps), the physics/metamorphic
// properties, and the mutation
// self-test that proves the oracles can catch injected numerical bugs.
//
// Usage:
//
//	conform [-seed N] [-cases N] [-run REGEXP] [-v]        # suite
//	conform -selftest [-seed N] [-cases N]                 # mutation power
//	conform -replay 'v1;seed=7;grid=8x9x8;...' -run NAME   # reproduce
//	conform -list                                          # oracle names
//
// Exit status: 0 all green, 1 oracle violation or undetected mutation,
// 2 usage/configuration error.
package main

import (
	"flag"
	"fmt"
	"os"

	"sunwaylb/internal/conform"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seed     = flag.Int64("seed", 1, "case-generator seed (whole run is deterministic in it)")
		cases    = flag.Int("cases", 25, "number of generated cases (suite) or max scan per mutation (selftest)")
		runPat   = flag.String("run", "", "regexp selecting oracles (replay: exact oracle name)")
		replay   = flag.String("replay", "", "replay string (from a failure report) to reproduce standalone")
		selftest = flag.Bool("selftest", false, "run the mutation-sensitivity self-test")
		list     = flag.Bool("list", false, "list oracle names and exit")
		verbose  = flag.Bool("v", false, "log per-case progress")
	)
	flag.Parse()

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}

	switch {
	case *list:
		for _, n := range conform.OracleNames() {
			fmt.Println(n)
		}
		for _, n := range conform.MutantOracleNames() {
			fmt.Println(n)
		}
		return 0

	case *replay != "":
		if *runPat == "" {
			fmt.Fprintln(os.Stderr, "conform: -replay needs -run with the exact oracle name")
			return 2
		}
		c, err := conform.ParseCase(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		err = conform.RunOracle(*runPat, c)
		switch {
		case err == nil:
			fmt.Printf("PASS %s on %s\n", *runPat, c)
			return 0
		case conform.IsSkip(err):
			fmt.Printf("SKIP %s on %s: %v\n", *runPat, c, err)
			return 0
		default:
			fmt.Printf("FAIL %s on %s:\n  %v\n", *runPat, c, err)
			return 1
		}

	case *selftest:
		dets, err := conform.SelfTest(*seed, *cases, logf)
		for _, d := range dets {
			fmt.Printf("mutant/%s: caught (%s)\n  replay: -replay '%s' -run 'mutant/%s'\n",
				d.Mutation.Name, d.Mutation.Detects, d.Replay, d.Mutation.Name)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("selftest: all %d injected bugs detected and shrunk\n", len(dets))
		return 0

	default:
		rep, err := conform.RunSuite(conform.Config{
			Seed: *seed, Cases: *cases, Run: *runPat, Logf: logf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Println(rep.Summary())
		for _, f := range rep.Failures {
			fmt.Printf("FAIL %s\n", f)
		}
		if !rep.OK() {
			return 1
		}
		return 0
	}
}
