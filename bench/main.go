// Bench is the repository's benchmark: four named workloads run through
// the two user binaries (cmd/sunwaylb, cmd/lbmserve) for the end-to-end
// numbers, and one traced pass that times calls into each module's public
// functions for the per-layer numbers, every one in the paper's unit
// (MLUPS) against the host's measured bandwidth roofline. See README.md.
//
// Usage (from the checkout root; bench/ is a module of its own):
//
//	bash bench/run.sh --workload cli-single --seed 1 --seconds 24 --trace 0
//	go run -C bench . -seed 1                 # every workload, then the traced pass
//	go run -C bench . -compare a.json b.json  # do two sets of runs agree?
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"sunwaylb/internal/trace"
)

// bench is the state one process shares across workloads.
type bench struct {
	root string
	bins binaries
	tmp  string
	host hostInfo
	// tracer records the benchmark's own spans around the calls into
	// each layer; nil (inert) outside the traced pass.
	tracer *trace.Tracer
	spans  *trace.RankTracer
}

// span opens a span on the layer's track and returns the closure that
// ends it; a no-op with tracing off.
func (b *bench) span(layer, name string) func() { return b.spans.Scope(layer, name) }

func workloadNames() []string {
	var names []string
	for _, w := range cliWorkloads {
		names = append(names, w.name)
	}
	return append(names, serveWorkloadName)
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: cli-single|cli-ranks-2x1|cli-resilient-2x1|serve-jobs (default: all four, then the traced pass)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 24, "how long one run measures")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced pass, per-layer metrics")
		out      = flag.String("out", "", "append the run records to this results file (default with no -workload: "+buildDirName+"/results.json)")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments (parent, change); exit non-zero on a regression")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two results files: parent.json change.json")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *workload != "" && !slices.Contains(workloadNames(), *workload) {
		fatalf("unknown workload %q (want one of %v)", *workload, workloadNames())
	}
	b, err := newBench()
	if err != nil {
		fatalf("%v", err)
	}
	code := b.run(*workload, *seed, *seconds, *traced != 0, *out)
	os.RemoveAll(b.tmp)
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func newBench() (*bench, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	bins, err := ensureBinaries(root)
	if err != nil {
		return nil, err
	}
	tmp, err := scratchDir(root)
	if err != nil {
		return nil, err
	}
	return &bench{root: root, bins: bins, tmp: tmp, host: probeHost(root)}, nil
}

// run executes the requested runs, prints every metric by name with its
// unit, appends the records to the results file and, for a single
// workload, ends with the driver's one-line JSON summary. The exit code is
// non-zero when any output check failed.
func (b *bench) run(workload string, seed int64, seconds float64, traced bool, out string) int {
	fmt.Println(b.host)
	var recs []runRecord
	single := workload != ""
	switch {
	case single && traced:
		recs = append(recs, b.tracedPass(workload, seed, seconds))
	case single:
		recs = append(recs, b.endToEndRun(workload, seed, seconds))
	default:
		for _, w := range workloadNames() {
			recs = append(recs, b.endToEndRun(w, seed, seconds))
		}
		recs = append(recs, b.tracedPass("all", seed, seconds))
		if out == "" {
			out = filepath.Join(b.root, buildDirName, "results.json")
		}
	}
	code := 0
	for i := range recs {
		r := &recs[i]
		defs := endToEnd
		if r.Trace {
			defs = perLayer
		}
		fmt.Printf("\n== %s seed=%d trace=%v GOMAXPROCS=%d ==\n", r.Workload, r.Seed, r.Trace, runtime.GOMAXPROCS(0))
		r.print(os.Stdout, defs)
		if !r.Correct {
			code = 1
		}
	}
	if out != "" {
		if err := appendResults(out, b.host, recs...); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", out, err)
			code = 2
		} else {
			fmt.Printf("\nappended %d run(s) to %s\n", len(recs), out)
		}
	}
	if single && len(recs[0].Metrics) > 0 {
		fmt.Println(recs[0].contractLine())
	}
	return code
}

// endToEndRun measures one workload with tracing off. An error that
// leaves nothing to report marks the record incorrect.
func (b *bench) endToEndRun(workload string, seed int64, seconds float64) runRecord {
	var rec runRecord
	var err error
	if w, ok := findCLIWorkload(workload); ok {
		rec, err = b.runCLIWorkload(w, seconds)
	} else {
		rec, err = b.runServeWorkload(seed, seconds)
	}
	rec.Seed = seed
	if err != nil {
		rec.Correct = false
		rec.note("FAILED: %v", err)
	}
	return rec
}
