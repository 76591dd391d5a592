package gpu

import (
	"math"
	"testing"

	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/network"
	"sunwaylb/internal/trace"
)

// TestFig11Ablation: the optimization staircase is monotone and each stage
// contributes; the final speedup lands near the paper's 191×.
func TestFig11Ablation(t *testing.T) {
	stages := Fig11Ablation(RTX3090Cluster)
	if len(stages) != 5 {
		t.Fatalf("%d stages, want 5", len(stages))
	}
	names := []string{"CPU", "Kernel Fusion", "Parallelization", "Computation Opt.", "Communication Opt."}
	for i, s := range stages {
		if s.Name != names[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Name, names[i])
		}
		if i > 0 && s.StepTime >= stages[i-1].StepTime {
			t.Errorf("stage %q no faster than %q", s.Name, stages[i-1].Name)
		}
		t.Logf("Fig11 %-20s %10.4f s  %6.1f×", s.Name, s.StepTime, s.Speedup)
	}
	// Fusion halves the CPU traffic.
	if r := stages[0].StepTime / stages[1].StepTime; math.Abs(r-2) > 0.01 {
		t.Errorf("fusion speedup = %.2f, want 2.0", r)
	}
	// Offload to 8 GPUs is the dominant jump.
	if r := stages[1].StepTime / stages[2].StepTime; r < 20 {
		t.Errorf("parallelization speedup = %.1f, want large (>20)", r)
	}
	final := stages[len(stages)-1]
	if math.Abs(final.Speedup-191)/191 > 0.10 {
		t.Errorf("final speedup = %.0f×, paper says 191× (±10%%)", final.Speedup)
	}
}

func TestHeadline(t *testing.T) {
	speedup, util := RTX3090Cluster.Headline()
	if math.Abs(speedup-191)/191 > 0.10 {
		t.Errorf("headline speedup = %.0f, want ≈191", speedup)
	}
	if math.Abs(util-0.838) > 1e-9 {
		t.Errorf("kernel utilization = %.3f, paper says 0.838", util)
	}
}

func TestSpeedupOneGPUvsOneCore(t *testing.T) {
	got := RTX3090Cluster.SpeedupOneGPUvsOneCore()
	if math.Abs(got-200)/200 > 0.15 {
		t.Errorf("1 GPU vs 1 core = %.0f×, paper says ≈200×", got)
	}
}

// TestFig17StrongScaling: 1→8 nodes on the 1400×2800×100 wind field, 86.3%
// efficiency at 8 nodes (64 GPUs).
func TestFig17StrongScaling(t *testing.T) {
	pts := RTX3090Cluster.StrongScaling(1400, 2800, 100,
		[]int{1, 2, 4, 8}, network.GPUClusterNet)
	last := pts[len(pts)-1]
	if last.Nodes != 8 || last.GPUs != 64 {
		t.Fatalf("endpoint = %d nodes / %d GPUs", last.Nodes, last.GPUs)
	}
	if math.Abs(last.Efficiency-0.863) > 0.08 {
		t.Errorf("8-node efficiency = %.3f, paper says 0.863 (±0.08)", last.Efficiency)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Rate <= pts[i-1].Rate {
			t.Errorf("rate non-increasing at %d nodes", pts[i].Nodes)
		}
		if pts[i].Efficiency > pts[i-1].Efficiency+1e-9 {
			t.Errorf("efficiency increased at %d nodes", pts[i].Nodes)
		}
	}
	for _, p := range pts {
		t.Logf("Fig17 %d nodes (%2d GPUs): %8.2f ms/step, eff %.1f%%, BW %.1f%%",
			p.Nodes, p.GPUs, p.StepTime*1e3, p.Efficiency*100, p.BWUtil*100)
	}
}

// TestNCCLBeatsStagedComm: the NCCL path must be faster than host staging
// for the same subdomain (the premise of the communication optimization).
func TestNCCLBeatsStagedComm(t *testing.T) {
	s := RTX3090Cluster
	base := Options{KernelFusion: true, Offload: true, ComputeOpt: true}
	nccl := base
	nccl.NCCL = true
	tStaged := s.NodeStepTime(1400, 2800, 100, base)
	tNCCL := s.NodeStepTime(1400, 2800, 100, nccl)
	if tNCCL >= tStaged {
		t.Errorf("NCCL (%v) must beat host-staged exchange (%v)", tNCCL, tStaged)
	}
}

// TestOverlapHidesComm: with overlap the step approaches the kernel time.
func TestOverlapHidesComm(t *testing.T) {
	s := RTX3090Cluster
	opt := Fig11Final()
	plain := s.NodeStepTime(1400, 2800, 100, opt)
	opt.Overlap = true
	overlapped := s.NodeStepTime(1400, 2800, 100, opt)
	if overlapped >= plain {
		t.Errorf("overlap (%v) must beat sequential (%v)", overlapped, plain)
	}
}

// TestComputeOptEffect: the division-precomputation stage improves the
// kernel by the efficiency ratio.
func TestComputeOptEffect(t *testing.T) {
	s := RTX3090Cluster
	base := Options{KernelFusion: true, Offload: true, NCCL: true}
	tuned := base
	tuned.ComputeOpt = true
	r := s.NodeStepTime(1400, 2800, 100, base) / s.NodeStepTime(1400, 2800, 100, tuned)
	want := s.TunedKernelEff / s.BaseKernelEff
	if r < 1.1 || r > want+0.1 {
		t.Errorf("compute-opt speedup = %.2f, want within (1.1, %.2f]", r, want+0.1)
	}
}

// TestPinnedBeatsPageable: the §IV-E pinned-memory claim — avoiding the
// pageable staging bounce speeds up the host-staged halo exchange.
func TestPinnedBeatsPageable(t *testing.T) {
	s := RTX3090Cluster
	pinned := Options{KernelFusion: true, Offload: true, ComputeOpt: true}
	pageable := pinned
	pageable.Pageable = true
	tPinned := s.NodeStepTime(1400, 2800, 100, pinned)
	tPageable := s.NodeStepTime(1400, 2800, 100, pageable)
	if tPinned >= tPageable {
		t.Errorf("pinned (%v) must beat pageable (%v)", tPinned, tPageable)
	}
	// The kernel time is unchanged; only the comm term shrinks, by the
	// bandwidth ratio.
	savings := tPageable - tPinned
	faceBytes := 1400.0 * 100 * popBytes
	want := 4 * (faceBytes/s.PageableBandwidth - faceBytes/s.PinnedBandwidth)
	if diff := savings - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("pinned savings = %v, want %v", savings, want)
	}
}

// TestEnginePrice: the engine prices a step at the node model — Price
// returns NodeStepTime, TotalTime sums the prices, the lattice is not
// touched, and each step lays StepPhases on the Sim clock: kernel phases
// on the gpu-kernel track, the halo path on gpu-comm, back to back.
func TestEnginePrice(t *testing.T) {
	l, err := core.NewLattice(&lattice.D3Q19, 12, 8, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), l.Src()...)
	for _, opt := range []Options{Fig11Final(), {Offload: true, KernelFusion: true}, {}} {
		eng, err := NewEngine(l, RTX3090Cluster, opt)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(trace.Options{})
		eng.SetTrace(tr.ForRank(0))
		want := RTX3090Cluster.NodeStepTime(12, 8, 4, opt)
		phases := RTX3090Cluster.StepPhases(12, 8, 4, opt)
		var total float64
		for s := 0; s < 3; s++ {
			p := eng.Price()
			if p != want {
				t.Fatalf("%+v: step %d price %v, want NodeStepTime %v", opt, s, p, want)
			}
			total += p
		}
		if eng.TotalTime != total {
			t.Errorf("%+v: TotalTime = %v, sum of prices = %v", opt, eng.TotalTime, total)
		}
		var spans []PhaseTime
		open := map[string]trace.Event{}
		for _, e := range tr.Events() {
			switch e.Kind {
			case trace.KindBegin:
				open[e.Track] = e
			case trace.KindEnd:
				b := open[e.Track]
				spans = append(spans, PhaseTime{b.Name, e.TS - b.TS})
			}
		}
		if len(spans) != 3*len(phases) {
			t.Fatalf("%+v: %d Sim spans, want 3 steps × %d phases", opt, len(spans), len(phases))
		}
		for i, sp := range spans {
			if ph := phases[i%len(phases)]; sp.Name != ph.Name || math.Abs(sp.Sec-ph.Sec) > 1e-12*want {
				t.Errorf("%+v: span %d = %+v, want phase %+v", opt, i, sp, ph)
			}
		}
	}
	for i, v := range l.Src() {
		if v != before[i] {
			t.Fatalf("pricing changed population %d", i)
		}
	}
	if l.Step() != 0 {
		t.Errorf("pricing stepped the lattice to %d", l.Step())
	}
	// Rate helper agrees with step time.
	r := RTX3090Cluster.NodeRate(12, 8, 4, Fig11Final())
	want := float64(12*8*4) / RTX3090Cluster.NodeStepTime(12, 8, 4, Fig11Final())
	if math.Abs(float64(r)-want) > 1e-6 {
		t.Errorf("NodeRate = %v, want %v", float64(r), want)
	}
	// Invalid specs are rejected.
	bad := RTX3090Cluster
	bad.GPUsPerNode = 0
	if _, err := NewEngine(l, bad, Fig11Final()); err == nil {
		t.Error("invalid spec must be rejected")
	}
}
