package main

// Machine-readable benchmark mode (-json): runs a small fixed set of
// *measured* cases — as opposed to the model-driven figures — and writes
// BENCH_results.json so the repo accumulates a perf trajectory across
// commits. Each case reports the perf.Monitor digest (MLUPS, mean/p50/p99
// step time) plus case-specific counters; the distributed case derives its
// per-step samples from the trace subsystem's rank-0 step spans, so the
// bench output and the timeline tooling agree by construction.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sunwaylb/internal/core"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/patch"
	"sunwaylb/internal/perf"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/sunway"
	"sunwaylb/internal/swlb"
	"sunwaylb/internal/trace"
)

// CaseResult is one measured benchmark case.
type CaseResult struct {
	Name    string       `json:"name"`
	Summary perf.Summary `json:"summary"`
	// Goroutines is the peak goroutine count sampled while the case ran —
	// the case's concurrency footprint (rank goroutines, halo exchanges,
	// supervisor machinery), so throughput numbers can be read against
	// how much parallelism actually backed them.
	Goroutines int                 `json:"goroutines_peak"`
	Counters   map[string]int64    `json:"counters,omitempty"`
	Recovery   *perf.RecoveryStats `json:"recovery,omitempty"`
}

// BenchResults is the BENCH_results.json document.
type BenchResults struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is the scheduler's P count for this run: the actual
	// parallelism available, as opposed to NumCPU's hardware inventory.
	GoMaxProcs int          `json:"gomaxprocs"`
	Cases      []CaseResult `json:"cases"`
}

const (
	benchN     = 40 // kernel-case cube edge
	benchSteps = 20
)

// benchLattice builds a periodic fluid cube at equilibrium.
func benchLattice(nx, ny, nz int) (*core.Lattice, error) {
	l, err := core.NewLattice(&lattice.D3Q19, nx, ny, nz, 0.6)
	if err != nil {
		return nil, err
	}
	l.InitEquilibrium(1, 0.02, 0.01, 0.005)
	return l, nil
}

// kernelCounters annotates a kernel case with the parallelism actually
// used, so throughput comparisons across machines (and the pool-vs-serial
// acceptance check, which only applies on multi-core hosts) can be made
// from the recorded document alone.
func kernelCounters(cells int64, workers int) map[string]int64 {
	return map[string]int64{
		"cells":   cells,
		"workers": int64(workers),
		"num_cpu": int64(runtime.NumCPU()),
	}
}

// runKernel times the single-rank double-buffer fused step: the
// descriptor-generic sweep, the reference every AA case is read against
// and no default path's kernel.
func runKernel() (CaseResult, error) {
	l, err := benchLattice(benchN, benchN, benchN)
	if err != nil {
		return CaseResult{}, err
	}
	cells := int64(benchN) * benchN * benchN
	mon := perf.NewMonitor(cells)
	l.StepFused() // untimed: the second buffer is allocated on first use
	for s := 0; s < benchSteps; s++ {
		l.PeriodicAll()
		mon.StepStart()
		l.StepFused()
		mon.StepEnd()
	}
	return CaseResult{
		Name:     "kernel-fused",
		Summary:  mon.SummaryStats(),
		Counters: kernelCounters(cells, 1),
	}, nil
}

// runKernelAA times the in-place AA-pattern kernel, serially or through
// the persistent worker pool.
func runKernelAA(name string, workers int) (CaseResult, error) {
	l, err := benchLattice(benchN, benchN, benchN)
	if err != nil {
		return CaseResult{}, err
	}
	l.EnableAA()
	var pool *core.Pool
	if workers > 1 {
		pool = core.NewPool(l, workers)
		defer pool.Close()
		workers = pool.Workers()
	} else {
		workers = 1
	}
	cells := int64(benchN) * benchN * benchN
	mon := perf.NewMonitor(cells)
	for s := 0; s < benchSteps; s++ {
		l.PeriodicAll()
		mon.StepStart()
		if pool != nil {
			pool.Step()
		} else {
			l.StepFused()
		}
		mon.StepEnd()
	}
	return CaseResult{
		Name:     name,
		Summary:  mon.SummaryStats(),
		Counters: kernelCounters(cells, workers),
	}, nil
}

// runSunwayCG times the simulated SW26010 core group on one subdomain;
// the samples are the engine's modelled step times and the counters are
// its cumulative DMA / register-communication traffic.
func runSunwayCG() (CaseResult, error) {
	const nx, ny, nz = 32, 32, 64
	l, err := benchLattice(nx, ny, nz)
	if err != nil {
		return CaseResult{}, err
	}
	eng, err := swlb.New(l, sunway.SW26010, swlb.DefaultOptions())
	if err != nil {
		return CaseResult{}, err
	}
	mon := perf.NewMonitor(int64(nx) * ny * nz)
	for s := 0; s < benchSteps; s++ {
		l.PeriodicAll()
		mon.Record(eng.Step())
	}
	return CaseResult{
		Name:    "sunway-sim-cg",
		Summary: mon.SummaryStats(),
		Counters: map[string]int64{
			"dma_bytes":      eng.CG.Counters.DMABytes,
			"intercpe_bytes": eng.CG.Counters.InterCPEBytes,
			"clean_columns":  int64(eng.CleanColumns()),
			"mixed_columns":  int64(eng.MixedColumns()),
		},
	}, nil
}

// runDistributed times a 2×2-rank periodic run. Per-step wall samples are
// extracted from the trace subsystem (rank-0 step spans) rather than
// re-instrumenting the solver, so this case also exercises the tracer
// end-to-end.
func runDistributed() (CaseResult, error) {
	const gnx, gny, gnz = 48, 48, 24
	tracer := trace.New(trace.Options{})
	opts := psolve.Options{
		GNX: gnx, GNY: gny, GNZ: gnz,
		PX: 2, PY: 2,
		Tau:       0.6,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Init: func(gx, gy, gz int) (rho, ux, uy, uz float64) {
			return 1, 0.02, 0.01, 0.005
		},
		Trace: tracer,
	}
	if _, err := psolve.Run(opts, benchSteps); err != nil {
		return CaseResult{}, err
	}
	mon := perf.NewMonitor(int64(gnx) * gny * gnz)
	events := tracer.Events()
	for _, d := range stepDurations(events, 0) {
		mon.Record(d)
	}
	return CaseResult{
		Name:    "distributed-2x2",
		Summary: mon.SummaryStats(),
		Counters: map[string]int64{
			"ranks":        4,
			"trace_events": int64(len(events)),
		},
	}, nil
}

// runSupervisedHotswap times the memory-tier recovery path: a 2×2-rank
// supervised run with the full L1/L2/L3 snapshot hierarchy that loses
// one rank mid-flight and hot-swaps it back from buddy/parity deposits.
// The Recovery block carries MTTR, downtime and the per-level snapshot
// byte ledger into BENCH_results.json.
func runSupervisedHotswap() (CaseResult, error) {
	const gnx, gny, gnz = 48, 48, 24
	tracer := trace.New(trace.Options{})
	opts := psolve.Options{
		GNX: gnx, GNY: gny, GNZ: gnz,
		PX: 2, PY: 2,
		Tau:       0.6,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Init: func(gx, gy, gz int) (rho, ux, uy, uz float64) {
			return 1, 0.02, 0.01, 0.005
		},
		Trace: tracer,
	}
	plan := fault.Plan{
		Seed:         11,
		GroupCrashes: []fault.GroupCrash{{Group: 0, Count: 1, Step: benchSteps / 2}},
	}
	_, stats, err := psolve.Supervise(psolve.SupervisorOptions{
		Opts:          opts,
		Steps:         benchSteps,
		MaxRestarts:   3,
		SnapshotEvery: 2,
		Levels:        resil.L1 | resil.L2 | resil.L3,
		GroupSize:     2,
		SpareRanks:    2,
		Injector:      fault.NewInjector(plan),
	})
	if err != nil {
		return CaseResult{}, err
	}
	mon := perf.NewMonitor(int64(gnx) * gny * gnz)
	for _, d := range stepDurations(tracer.Events(), 0) {
		mon.Record(d)
	}
	return CaseResult{
		Name:    "supervised-hotswap",
		Summary: mon.SummaryStats(),
		Counters: map[string]int64{
			"ranks":    4,
			"l1_bytes": stats.SnapshotBytes[0],
			"l2_bytes": stats.SnapshotBytes[1],
			"l3_bytes": stats.SnapshotBytes[2],
			"l4_bytes": stats.SnapshotBytes[3],
		},
		Recovery: &stats,
	}, nil
}

// runPatchHetero times the patch-decomposed world on a heterogeneous
// worker roster (two CPU cores — one an 8× straggler — a simulated
// Sunway core group and the GPU node model). A deterministic cost model
// stands in for wall-clock noise so the balancer's decisions, and hence
// the migration counters and imbalance trajectory recorded here, are
// reproducible across runs; per-step wall samples still come from the
// rank-0 trace spans like the other distributed cases.
func runPatchHetero() (CaseResult, error) {
	const gnx, gny, gnz = 48, 48, 24
	const steps = 30
	tracer := trace.New(trace.Options{})
	spc := [4]float64{1.0, 8.0, 0.4, 0.15} // seconds per cell ×1e-8, per worker
	opts := patch.Options{
		GNX: gnx, GNY: gny, GNZ: gnz,
		TX: 4, TY: 2, TZ: 1,
		Tau:       0.6,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Init: func(gx, gy, gz int) (rho, ux, uy, uz float64) {
			return 1, 0.02, 0.01, 0.005
		},
		Workers: []patch.Worker{
			{Backend: patch.BackendCore},
			{Backend: patch.BackendCore}, // the straggler, per the cost model
			{Backend: patch.BackendSunway},
			{Backend: patch.BackendGPU},
		},
		RebalanceEvery: 5,
		CostModel: func(worker int, p patch.Patch) float64 {
			return spc[worker] * float64(p.Cells()) * 1e-8
		},
		Trace: tracer,
	}
	_, stats, err := patch.Run(opts, steps)
	if err != nil {
		return CaseResult{}, err
	}
	mon := perf.NewMonitor(int64(gnx) * gny * gnz)
	for _, d := range stepDurations(tracer.Events(), 0) {
		mon.Record(d)
	}
	counters := map[string]int64{
		"patches":              int64(stats.Patches),
		"workers":              int64(stats.Workers),
		"migrations":           int64(stats.Migrations),
		"rebalances":           int64(stats.Rebalances),
		"imbalance_pre_milli":  int64(stats.ImbalancePre * 1000),
		"imbalance_post_milli": int64(stats.ImbalancePost * 1000),
	}
	for p, m := range stats.PatchMLUPS {
		counters[fmt.Sprintf("patch%d_mlups_milli", p)] = int64(m * 1000)
	}
	if stats.ImbalancePost >= stats.ImbalancePre {
		return CaseResult{}, fmt.Errorf("patch-hetero: balancer did not reduce imbalance (pre %.3f, post %.3f)",
			stats.ImbalancePre, stats.ImbalancePost)
	}
	return CaseResult{
		Name:     "patch-hetero",
		Summary:  mon.SummaryStats(),
		Counters: counters,
	}, nil
}

// stepDurations pairs Begin/End events on the given rank's wall-clock
// step track into per-step durations, in recording order. The step track
// also carries nested compute/bc spans, so the span name is tracked
// through the nesting stack and only "step" spans are reported.
func stepDurations(events []trace.Event, rank int) []float64 {
	type frame struct {
		name string
		ts   float64
	}
	var out []float64
	var open []frame
	for _, e := range events {
		if e.Rank != rank || e.Clock != trace.Wall || e.Track != trace.TrackStep {
			continue
		}
		switch e.Kind {
		case trace.KindBegin:
			open = append(open, frame{e.Name, e.TS})
		case trace.KindEnd:
			if n := len(open); n > 0 {
				f := open[n-1]
				open = open[:n-1]
				if f.name == "step" {
					out = append(out, e.TS-f.ts)
				}
			}
		}
	}
	return out
}

// sampleGoroutines polls the runtime's goroutine count in the background
// until stopped and reports the observed peak.
func sampleGoroutines() (stop func() int) {
	quit := make(chan struct{})
	out := make(chan int, 1)
	go func() {
		peak := runtime.NumGoroutine()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				out <- peak
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
	}()
	return func() int {
		close(quit)
		return <-out
	}
}

// checkBaseline compares the AA-kernel throughput of this run against a
// committed baseline document and fails on a regression of more than 10%.
// Only the serial AA kernel is gated: it is the kernel every default path
// runs and the one deterministic, machine-independent-ish case, whereas
// the concurrent and modelled cases are too noisy for a hard threshold.
func checkBaseline(res *BenchResults, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("benchsuite: reading baseline: %w", err)
	}
	var base BenchResults
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("benchsuite: parsing baseline %s: %w", baselinePath, err)
	}
	find := func(doc *BenchResults, name string) *CaseResult {
		for i := range doc.Cases {
			if doc.Cases[i].Name == name {
				return &doc.Cases[i]
			}
		}
		return nil
	}
	const gated = "kernel-aa"
	b, n := find(&base, gated), find(res, gated)
	if b == nil || b.Summary.MLUPS <= 0 {
		fmt.Printf("baseline %s has no %s case; skipping regression gate\n", baselinePath, gated)
		return nil
	}
	if n == nil {
		return fmt.Errorf("benchsuite: run produced no %s case to gate", gated)
	}
	floor := 0.9 * b.Summary.MLUPS
	if n.Summary.MLUPS < floor {
		return fmt.Errorf("benchsuite: %s regressed >10%%: %.2f MLUPS vs baseline %.2f (floor %.2f)",
			gated, n.Summary.MLUPS, b.Summary.MLUPS, floor)
	}
	fmt.Printf("baseline gate ok: %s %.2f MLUPS vs baseline %.2f (floor %.2f)\n",
		gated, n.Summary.MLUPS, b.Summary.MLUPS, floor)
	return nil
}

// runJSON executes every measured case and writes the results document.
// If baselinePath is non-empty the AA-kernel throughput is additionally
// gated against that committed document.
func runJSON(path, baselinePath string) error {
	res := BenchResults{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	type step struct {
		name string
		run  func() (CaseResult, error)
	}
	for _, s := range []step{
		{"kernel-fused", runKernel},
		{"kernel-aa", func() (CaseResult, error) { return runKernelAA("kernel-aa", 1) }},
		{"kernel-aa-pool-4", func() (CaseResult, error) { return runKernelAA("kernel-aa-pool-4", 4) }},
		{"sunway-sim-cg", runSunwayCG},
		{"distributed-2x2", runDistributed},
		{"supervised-hotswap", runSupervisedHotswap},
		{"patch-hetero", runPatchHetero},
	} {
		peak := sampleGoroutines()
		c, err := s.run()
		c.Goroutines = peak()
		if err != nil {
			return fmt.Errorf("benchsuite: case %s: %w", s.name, err)
		}
		fmt.Printf("%-18s %6.2f MLUPS  mean %.3g s/step (p50 %.3g, p99 %.3g)  %d goroutines peak\n",
			c.Name, c.Summary.MLUPS, c.Summary.MeanSec, c.Summary.P50Sec, c.Summary.P99Sec, c.Goroutines)
		res.Cases = append(res.Cases, c)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cases)\n", path, len(res.Cases))
	if baselinePath != "" {
		return checkBaseline(&res, baselinePath)
	}
	return nil
}
