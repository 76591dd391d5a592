package psolve

import (
	"math"
	"testing"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/gpu"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/sunway"
	"sunwaylb/internal/swlb"
	"sunwaylb/internal/trace"
)

// runPriced steps opts' ranks directly (no ladder) and returns the
// gathered field and every rank's SimTime.
func runPriced(t *testing.T, opts Options, steps int) (*core.MacroField, []float64) {
	t.Helper()
	sims := make([]float64, opts.PX*opts.PY)
	var got *core.MacroField
	err := mpi.Run(opts.PX*opts.PY, func(c *mpi.Comm) error {
		s, err := New(c, opts)
		if err != nil {
			return err
		}
		if !s.Lat.AA() {
			t.Errorf("rank %d: a priced rank's lattice is not AA", c.Rank())
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
		sims[c.Rank()] = s.SimTime()
		if g := s.GatherMacro(0); g != nil {
			got = g
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, sims
}

// checkPriced holds a priced run to the one-rank reference bit for bit
// and each rank's SimTime to its golden bits.
func checkPriced(t *testing.T, base Options, px, py, steps int, device func(*core.Lattice) (Device, error), want []uint64) *core.MacroField {
	t.Helper()
	ref := base
	ref.PX, ref.PY = 1, 1
	refField, err := Run(ref, steps)
	if err != nil {
		t.Fatal(err)
	}
	full := base
	full.PX, full.PY = px, py
	full.Device = device
	got, sims := runPriced(t, full, steps)
	for i := range refField.Rho {
		if refField.Rho[i] != got.Rho[i] || refField.Ux[i] != got.Ux[i] ||
			refField.Uy[i] != got.Uy[i] || refField.Uz[i] != got.Uz[i] {
			t.Fatalf("priced ranks diverged from the one-rank run at %d", i)
		}
	}
	for r, v := range sims {
		if math.Float64bits(v) != want[r] {
			t.Errorf("rank %d SimTime %v (%#x), want %v (%#x)", r, v, math.Float64bits(v),
				math.Float64frombits(want[r]), want[r])
		}
	}
	return refField
}

// The golden SimTime bits of the tests below were recorded at commit
// dafbf48, where the engines stepped a double-buffer copy of each rank's
// block: pricing a step must give the modelled time stepping it gave.
// They are fixed data.

// TestFullStackMPIPlusSunwayEngine is the paper's complete two-level
// architecture (§IV-A: "MPI with Athread"): simulated MPI ranks exchange
// halos while a simulated Sunway core group prices each rank's step. The
// ranks stay bit-identical to the one-rank run, and every rank's modelled
// time is the one its block's flags cost.
func TestFullStackMPIPlusSunwayEngine(t *testing.T) {
	wall := func(gx, gy, gz int) bool {
		return gx >= 7 && gx <= 9 && gy >= 6 && gy <= 8 && gz >= 2 && gz <= 4
	}
	base := Options{
		GNX: 18, GNY: 14, GNZ: 8,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Walls: wall,
		Init:  shearInit,
	}
	checkPriced(t, base, 2, 2, 12, func(lat *core.Lattice) (Device, error) {
		return swlb.New(lat, sunway.TestChip(4, 64*1024),
			swlb.Options{UseCPEs: true, Fused: true, YSharing: true, ComputeEff: 0.5, BZ: 8})
	}, []uint64{0x3f55184a2dd5b054, 0x3f4c2062e7c795c5, 0x3f5fa46f44c08881, 0x3f55184a2dd5b054})
}

// TestFullStackWithBoundaryConditions: the stack also works with
// inlet/outlet and wall conditions whose halo flags appear only at the
// first fill. A device priced before the first step's exchanges would see
// no walls in the y halo and price clean columns where mixed ones run.
func TestFullStackWithBoundaryConditions(t *testing.T) {
	base := Options{
		GNX: 16, GNY: 10, GNZ: 6,
		Tau: 0.72,
		FaceBC: map[core.Face]boundary.Condition{
			core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{0.04, 0, 0}},
			core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
			core.FaceYMin: &boundary.NoSlip{Face: core.FaceYMin},
			core.FaceYMax: &boundary.NoSlip{Face: core.FaceYMax},
		},
		PeriodicZ: true,
		Init:      func(x, y, z int) (float64, float64, float64, float64) { return 1, 0.04, 0, 0 },
	}
	ref := checkPriced(t, base, 2, 2, 25, func(lat *core.Lattice) (Device, error) {
		return swlb.New(lat, sunway.TestChip(4, 64*1024),
			swlb.Options{UseCPEs: true, Fused: true, ComputeEff: 0.5, BZ: 6})
	}, []uint64{0x3f65f94d4513ed00, 0x3f65f94d4513ed00, 0x3f65f94d4513ed00, 0x3f65f94d4513ed00})
	// And the channel actually flows.
	if mid := ref.Idx(8, 5, 3); ref.Ux[mid] < 0.01 {
		t.Errorf("channel not flowing: Ux=%v", ref.Ux[mid])
	}
}

// TestFullStackGPUCluster: the same distributed composition with the GPU
// node model pricing each rank's step — a model of the paper's MPI+CUDA
// stack (§IV-E).
func TestFullStackGPUCluster(t *testing.T) {
	base := Options{
		GNX: 16, GNY: 12, GNZ: 6,
		Tau:       0.7,
		PeriodicX: true, PeriodicY: true, PeriodicZ: true,
		Init: shearInit,
	}
	checkPriced(t, base, 2, 1, 10, func(lat *core.Lattice) (Device, error) {
		return gpu.NewEngine(lat, gpu.RTX3090Cluster, gpu.Fig11Final())
	}, []uint64{0x3f11bb91166558ec, 0x3f11bb91166558ec})
}

// TestLocalPricedStepSpans: the one-rank world prices its pool step as a
// rank does — each step lays a Sim-clock "step" span of the price times
// the plan's straggle factor, and SimTime is the price of the steps —
// so a straggle@rank=0 plan shows on one rank's Sim clock.
func TestLocalPricedStepSpans(t *testing.T) {
	const steps, factor = 6, 3
	opts := chaosBase()
	opts.PX, opts.PY = 1, 1
	opts.Device = func(lat *core.Lattice) (Device, error) {
		return swlb.New(lat, sunway.TestChip(4, 64*1024),
			swlb.Options{UseCPEs: true, Fused: true, ComputeEff: 0.5, BZ: 8})
	}
	_, sims := runPriced(t, opts, steps)
	price := sims[0] / steps

	tracer := trace.New(trace.Options{})
	opts.Trace = tracer
	plan, err := fault.ParsePlan("seed=1;straggle@rank=0,x=3")
	if err != nil {
		t.Fatal(err)
	}
	w := NewLocal(opts)
	if _, _, err := SuperviseOn(w, SupervisorOptions{Opts: opts, Steps: steps,
		Injector: fault.NewInjector(plan), Logf: t.Logf}); err != nil {
		t.Fatal(err)
	}
	var spans []float64
	var begin float64
	for _, e := range tracer.Events() {
		if e.Clock != trace.Sim || e.Track != trace.TrackStep {
			continue
		}
		switch e.Kind {
		case trace.KindBegin:
			begin = e.TS
		case trace.KindEnd:
			spans = append(spans, e.TS-begin)
		}
	}
	if len(spans) != steps {
		t.Fatalf("%d Sim-clock step spans, want %d", len(spans), steps)
	}
	for i, d := range spans {
		if want := factor * price; math.Abs(d-want) > 1e-12*want {
			t.Errorf("step %d: Sim span %v s, want %d × the price %v s", i, d, factor, price)
		}
	}
}
