// Package sunwaylb_test is the paper's benchmark harness: one testing.B
// benchmark per evaluation figure (Figs. 8, 11, 13–17 plus the §V-A
// roofline), each reporting the figure's headline quantities as custom
// benchmark metrics, plus functional kernel micro-benchmarks measured on
// the host machine.
//
// Run with:
//
//	go test -bench=. -benchmem
package sunwaylb_test

import (
	"testing"

	"sunwaylb/internal/core"
	"sunwaylb/internal/gpu"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/network"
	"sunwaylb/internal/perf"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/scaling"
	"sunwaylb/internal/sunway"
	"sunwaylb/internal/swlb"
	"sunwaylb/internal/trace"
)

// BenchmarkFig08_OptimizationAblation regenerates the Fig. 8 staircase and
// reports the cumulative speedup and final step time.
func BenchmarkFig08_OptimizationAblation(b *testing.B) {
	var stages []scaling.Stage
	for i := 0; i < b.N; i++ {
		stages = scaling.Fig8Ablation(sunway.SW26010)
	}
	last := stages[len(stages)-1]
	b.ReportMetric(last.Speedup, "speedup_x")
	b.ReportMetric(last.StepTime, "final_step_s")
	b.ReportMetric(stages[0].StepTime, "baseline_step_s")
}

// BenchmarkFig11_GPUOptimization regenerates the GPU-node ablation.
func BenchmarkFig11_GPUOptimization(b *testing.B) {
	var stages []gpu.Stage
	for i := 0; i < b.N; i++ {
		stages = gpu.Fig11Ablation(gpu.RTX3090Cluster)
	}
	last := stages[len(stages)-1]
	b.ReportMetric(last.Speedup, "speedup_x")
	_, util := gpu.RTX3090Cluster.Headline()
	b.ReportMetric(util*100, "kernel_bw_util_%")
}

// BenchmarkFig13_WeakScalingTaihuLight regenerates the TaihuLight weak
// scaling and reports the 160000-CG endpoint.
func BenchmarkFig13_WeakScalingTaihuLight(b *testing.B) {
	m := scaling.TaihuLightModel()
	var pts []scaling.Point
	for i := 0; i < b.N; i++ {
		pts = m.WeakScaling(scaling.Fig13Block[0], scaling.Fig13Block[1],
			scaling.Fig13Block[2], scaling.Fig13Grids)
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.Rate.GLUPS(), "GLUPS")
	b.ReportMetric(last.PFlops, "PFlops")
	b.ReportMetric(last.BWUtil*100, "bw_util_%")
	b.ReportMetric(last.Efficiency*100, "parallel_eff_%")
}

// BenchmarkFig14_StrongScalingTaihuLight reports the three endpoint
// efficiencies of Fig. 14.
func BenchmarkFig14_StrongScalingTaihuLight(b *testing.B) {
	m := scaling.TaihuLightModel()
	effs := make([]float64, len(scaling.Fig14Cases))
	for i := 0; i < b.N; i++ {
		for j, c := range scaling.Fig14Cases {
			pts := m.StrongScaling(c.GNX, c.GNY, c.GNZ, scaling.Fig14Grids)
			effs[j] = pts[len(pts)-1].Efficiency
		}
	}
	b.ReportMetric(effs[0]*100, "cylinder_eff_%")
	b.ReportMetric(effs[1]*100, "suboff_eff_%")
	b.ReportMetric(effs[2]*100, "urban_eff_%")
}

// BenchmarkFig15_WeakScalingNewSunway regenerates the new-Sunway weak
// scaling endpoint.
func BenchmarkFig15_WeakScalingNewSunway(b *testing.B) {
	m := scaling.NewSunwayModel()
	var pts []scaling.Point
	for i := 0; i < b.N; i++ {
		pts = m.WeakScaling(scaling.Fig15Block[0], scaling.Fig15Block[1],
			scaling.Fig15Block[2], scaling.Fig15Grids)
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.Rate.GLUPS(), "GLUPS")
	b.ReportMetric(last.PFlops, "PFlops")
	b.ReportMetric(last.BWUtil*100, "bw_util_%")
}

// BenchmarkFig16_StrongScalingNewSunway reports the cylinder endpoint on
// the new Sunway.
func BenchmarkFig16_StrongScalingNewSunway(b *testing.B) {
	m := scaling.NewSunwayModel()
	var eff float64
	for i := 0; i < b.N; i++ {
		for _, c := range scaling.Fig16Cases {
			pts := m.StrongScaling(c.GNX, c.GNY, c.GNZ, c.Grids)
			if c.Name == "flow past cylinder" {
				eff = pts[len(pts)-1].Efficiency
			}
		}
	}
	b.ReportMetric(eff*100, "cylinder_eff_%")
}

// BenchmarkFig17_GPUStrongScaling reports the 8-node efficiency of the
// GPU cluster.
func BenchmarkFig17_GPUStrongScaling(b *testing.B) {
	var pts []gpu.ClusterPoint
	for i := 0; i < b.N; i++ {
		pts = gpu.RTX3090Cluster.StrongScaling(1400, 2800, 100,
			[]int{1, 2, 4, 8}, network.GPUClusterNet)
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.Efficiency*100, "eff_8nodes_%")
	b.ReportMetric(last.Rate.GLUPS(), "GLUPS")
}

// BenchmarkRoofline reports the §V-A per-CG roofline quantities.
func BenchmarkRoofline(b *testing.B) {
	var r perf.LUPS
	for i := 0; i < b.N; i++ {
		r = perf.TaihuLight.Roofline()
	}
	b.ReportMetric(r.MLUPS(), "roofline_MLUPS_per_CG")
	b.ReportMetric(perf.TaihuLight.Utilization()*100, "paper_util_%")
}

// BenchmarkAblation_Decomposition reports the step-time penalty of the 1-D
// and 3-D decompositions against the paper's 2-D scheme (§IV-C-1).
func BenchmarkAblation_Decomposition(b *testing.B) {
	m := scaling.TaihuLightModel()
	var pts []scaling.DecompPoint
	for i := 0; i < b.N; i++ {
		pts = m.DecompositionAblation(500*400, 700*400, 100, 160000)
	}
	var t1, t2, t3 float64
	for _, p := range pts {
		switch p.Name {
		case "1-D (x slabs)":
			t1 = p.StepTime
		case "2-D (xy, full z)":
			t2 = p.StepTime
		case "3-D (xyz)":
			t3 = p.StepTime
		}
	}
	b.ReportMetric(t1/t2, "penalty_1D_x")
	b.ReportMetric(t3/t2, "penalty_3D_x")
}

// BenchmarkAblation_BlockLength reports the DMA-efficiency knee of the
// z-run-length sweep (§IV-C-2's 70-cell blocking).
func BenchmarkAblation_BlockLength(b *testing.B) {
	m := scaling.TaihuLightModel()
	var pts []scaling.BlockLengthPoint
	for i := 0; i < b.N; i++ {
		pts = m.BlockLengthSweep([]int{8, 70, 512})
	}
	b.ReportMetric(pts[0].Rate.MLUPS(), "bz8_MLUPS")
	b.ReportMetric(pts[1].Rate.MLUPS(), "bz70_MLUPS")
	b.ReportMetric(pts[2].Rate.MLUPS(), "bz512_MLUPS")
}

// BenchmarkAblation_OnTheFly reports the overlap gain at the strong-scaling
// endpoint block size.
func BenchmarkAblation_OnTheFly(b *testing.B) {
	m := scaling.TaihuLightModel()
	var pts []scaling.OnTheFlyPoint
	for i := 0; i < b.N; i++ {
		pts = m.OnTheFlySweep([][2]int{{64, 64}}, 100, 400, 400)
	}
	b.ReportMetric(pts[0].Gain*100, "gain_%")
}

// --- Functional kernel micro-benchmarks (host-machine times) ---

// BenchmarkKernelFused measures the reference fused collide–stream kernel.
func BenchmarkKernelFused(b *testing.B) {
	l, err := core.NewLattice(&lattice.D3Q19, 48, 48, 48, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	cells := int64(l.NX * l.NY * l.NZ)
	b.SetBytes(cells * 19 * 8 * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.PeriodicAll()
		l.StepFused()
	}
	b.StopTimer()
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
}

// BenchmarkKernelUnfused measures the pre-fusion two-pass baseline — the
// host-level analogue of the Fig. 8 fusion comparison.
func BenchmarkKernelUnfused(b *testing.B) {
	l, err := core.NewLattice(&lattice.D3Q19, 48, 48, 48, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	cells := int64(l.NX * l.NY * l.NZ)
	b.SetBytes(cells * 19 * 8 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.PeriodicAll()
		l.StepUnfused()
	}
	b.StopTimer()
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
}

// BenchmarkSunwaySimulatedCG measures the functional CPE-cluster simulator
// running the fully optimized kernel, reporting both host time and the
// simulated per-CG rate.
func BenchmarkSunwaySimulatedCG(b *testing.B) {
	l, err := core.NewLattice(&lattice.D3Q19, 4, 64, 70, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := swlb.New(l, sunway.SW26010, swlb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cells := float64(l.NX * l.NY * l.NZ)
	var simT float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.PeriodicAll()
		simT = eng.Step()
	}
	b.StopTimer()
	b.ReportMetric(cells/simT/1e6, "simulated_MLUPS_per_CG")
}

// BenchmarkDistributedHaloExchange measures a 2×2-rank distributed step
// (functional MPI runtime) including halo exchange.
func BenchmarkDistributedHaloExchange(b *testing.B) {
	opts := psolve.Options{
		GNX: 64, GNY: 64, GNZ: 32,
		PX: 2, PY: 2,
		Tau:       0.8,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
	}
	err := mpi.Run(4, func(c *mpi.Comm) error {
		s, err := psolve.New(c, opts)
		if err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	cells := int64(opts.GNX) * int64(opts.GNY) * int64(opts.GNZ)
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
}

// --- Tracing overhead (internal/trace) ---

// benchTracedStep times a 2×2-rank distributed step loop under the given
// tracer. The Disabled/Enabled pair quantifies the instrumentation cost:
// with a nil tracer every trace call is one nil-checked branch, so
// Disabled must match BenchmarkDistributedHaloExchange within noise.
func benchTracedStep(b *testing.B, tracer *trace.Tracer) {
	opts := psolve.Options{
		GNX: 64, GNY: 64, GNZ: 32,
		PX: 2, PY: 2,
		Tau:       0.8,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Trace: tracer,
	}
	w, err := mpi.NewWorld(4)
	if err != nil {
		b.Fatal(err)
	}
	w.SetTracer(tracer)
	err = mpi.RunWorld(w, func(c *mpi.Comm) error {
		s, err := psolve.New(c, opts)
		if err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	cells := int64(opts.GNX) * int64(opts.GNY) * int64(opts.GNZ)
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
	if tracer != nil {
		b.ReportMetric(float64(len(tracer.Events()))/float64(b.N), "events/step")
	}
}

// BenchmarkStepTraceDisabled is the nil-tracer baseline.
func BenchmarkStepTraceDisabled(b *testing.B) { benchTracedStep(b, nil) }

// BenchmarkStepTraceEnabled records full per-rank timelines into a
// bounded ring (so arbitrarily long -benchtime runs stay flat on memory).
func BenchmarkStepTraceEnabled(b *testing.B) {
	benchTracedStep(b, trace.New(trace.Options{MaxEventsPerRank: 1 << 15}))
}
