// Package swlb is the Sunway-optimized LBM solver of the paper (§IV-C and
// §IV-D): the fused pull collide–stream kernel mapped onto a simulated
// SW26010/SW26010-Pro core group.
//
// The mapping follows the paper's multi-level scheme:
//
//   - The subdomain is processed as (x, y) columns of NZ contiguous cells;
//     each CPE owns one column per pass and loads the 19 shifted z-runs it
//     needs as long contiguous DMA descriptors (the z-blocking of
//     Fig. 5(2), which is what makes the DMA efficient).
//   - Columns whose 3×3 column neighbourhood is obstacle-free run on the
//     CPE cluster; columns touching walls are computed by the MPE
//     concurrently — the MPE/CPE collaboration of Fig. 9(2).
//   - With YSharing enabled, the 10 runs that originate from the y±1
//     columns are obtained from the neighbouring CPEs over register
//     communication (SW26010) or RMA (SW26010-Pro) instead of DMA — the
//     data-sharing scheme of Fig. 5(4)/Fig. 10(1).
//   - With AsyncDMA enabled, the next z-block's loads and the previous
//     block's stores overlap with computation on the dual pipelines
//     (Fig. 10(2)).
//   - With Fused disabled, streaming and collision run as separate passes
//     whose intermediate state round-trips through main memory — the
//     pre-fusion baseline of the Fig. 8 ablation.
//
// Every configuration produces bit-identical physics to core.StepFused;
// the options change only the simulated time and traffic. That time
// depends on the block's shape and flags alone, so a run path prices a
// step (Engine.Price) instead of moving its populations through the
// simulator: the rank or patch steps its AA lattice on the host, and the
// engine replays the cost of one functional Step measured once.
package swlb

import (
	"fmt"
	"math"

	"sunwaylb/internal/core"
	"sunwaylb/internal/sunway"
	"sunwaylb/internal/trace"
)

// FlopsPerCell is the floating-point work of one D3Q19 LBGK cell update
// (moments, equilibrium, relaxation); it matches the paper's implied
// ~420 flops/LUP (4.7 PFlops / 11245 GLUPS).
const FlopsPerCell = 418

// BytesPerCell is the paper's roofline traffic constant: 19 loads +
// 19 stores of 8 B plus write-allocate, §IV-C-3 and §V-A.
const BytesPerCell = 380

// Options selects the optimization stages (the Fig. 8 ablation axes).
type Options struct {
	// UseCPEs offloads clean columns to the CPE cluster; false is the
	// MPE-only baseline.
	UseCPEs bool
	// Fused runs collide and stream in one pass (no intermediate
	// main-memory round trip).
	Fused bool
	// YSharing fetches y-neighbour runs from adjacent CPEs over
	// register communication/RMA instead of DMA.
	YSharing bool
	// AsyncDMA overlaps DMA with computation (dual-pipeline /
	// double-buffering).
	AsyncDMA bool
	// ComputeEff is the fraction of CPE peak the collision loop
	// achieves: ≈0.08 for plain scalar code, ≈0.55 after the manual
	// vectorization/unrolling/reordering of §IV-C-4.
	ComputeEff float64
	// BZ is the z-block length per DMA descriptor (70 in the paper).
	BZ int
}

// DefaultOptions returns the fully optimized configuration.
func DefaultOptions() Options {
	return Options{UseCPEs: true, Fused: true, YSharing: true, AsyncDMA: true,
		ComputeEff: 0.55, BZ: 70}
}

// BaselineOptions returns the MPE-only starting point of Fig. 8.
func BaselineOptions() Options {
	return Options{ComputeEff: 0.08, BZ: 70}
}

// Engine drives one core group over one subdomain lattice.
type Engine struct {
	Lat  *core.Lattice
	CG   *sunway.CoreGroup
	Opt  Options
	Spec sunway.ChipSpec

	// cleanCols and mixedCols partition the interior (x,y) columns:
	// clean ones have no Wall/MovingWall cell in their 3×3 column
	// neighbourhood and run on CPEs; mixed ones run on the MPE.
	cleanCols []int32
	mixedCols []int32
	// allCols is cleanCols followed by mixedCols, precomputed by Rebuild
	// so the MPE-only Step path iterates the whole domain without
	// per-step concatenation (Step is //lbm:hot).
	allCols []int32

	// done carries the CPE cluster's simulated time back to the rank
	// goroutine; allocated once in New so Step stays allocation-free.
	done chan float64

	// Last step timing breakdown (simulated seconds).
	LastCPETime float64
	LastMPETime float64
	LastTime    float64

	// priced says the Last times are those of one functional Step of the
	// lattice's current flags, measured by Price on a scratch lattice, and
	// stepTraffic that step's CPE cluster traffic.
	priced      bool
	stepTraffic sunway.Counters

	// tr records per-step MPE/CPE spans and DMA counters on the rank's
	// Sim-clock timeline; simCursor is the engine's position on that
	// clock. Nil tr disables recording at the cost of one branch.
	tr        *trace.RankTracer
	simCursor float64
}

// SetTrace binds the engine to a rank's trace handle (psolve.Device);
// nil disables recording. The Sim cursor resumes at the rank's watermark
// so supervised restarts extend the modelled timeline instead of
// overlapping it.
func (e *Engine) SetTrace(tr *trace.RankTracer) {
	e.tr = tr
	e.simCursor = tr.SimWatermark()
}

// New builds an engine for the lattice on the given chip. Geometry (wall
// flags) must be final before the first Step; call Rebuild after changing
// it.
func New(lat *core.Lattice, spec sunway.ChipSpec, opt Options) (*Engine, error) {
	if opt.BZ <= 0 {
		opt.BZ = 70
	}
	if opt.ComputeEff <= 0 {
		opt.ComputeEff = 0.55
	}
	e := &Engine{Lat: lat, CG: sunway.NewCoreGroup(spec), Opt: opt, Spec: spec,
		done: make(chan float64, 1)}
	if err := e.checkLDM(); err != nil {
		return nil, err
	}
	e.Rebuild()
	return e, nil
}

// checkLDM verifies the kernel's LDM footprint fits the chip before any
// CPE panics mid-run.
func (e *Engine) checkLDM() error {
	bz := e.Opt.BZ
	if e.Lat.NZ < bz {
		bz = e.Lat.NZ
	}
	q := e.Lat.Desc.Q
	// runs + out, double-buffered under AsyncDMA, plus scratch.
	bufs := 2 * q * bz
	if e.Opt.AsyncDMA {
		bufs *= 2
	}
	need := (bufs + 2*q) * 8
	if need > e.Spec.LDMBytes {
		return fmt.Errorf("swlb: kernel footprint %d B exceeds %s LDM %d B (reduce BZ=%d)",
			need, e.Spec.Name, e.Spec.LDMBytes, e.Opt.BZ)
	}
	return nil
}

// Rebuild re-partitions the columns after a geometry change; the next
// Price measures the step again.
func (e *Engine) Rebuild() {
	e.priced = false
	l := e.Lat
	e.cleanCols = e.cleanCols[:0]
	e.mixedCols = e.mixedCols[:0]
	for x := 0; x < l.NX; x++ {
		for y := 0; y < l.NY; y++ {
			if e.columnClean(x, y) {
				e.cleanCols = append(e.cleanCols, int32(x*l.NY+y))
			} else {
				e.mixedCols = append(e.mixedCols, int32(x*l.NY+y))
			}
		}
	}
	e.allCols = append(e.allCols[:0], e.cleanCols...)
	e.allCols = append(e.allCols, e.mixedCols...)
}

// columnClean reports whether the 3×3 column neighbourhood of (x, y)
// contains no solid cell over the full allocated z extent.
func (e *Engine) columnClean(x, y int) bool {
	l := e.Lat
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			for z := -1; z <= l.NZ; z++ {
				switch l.Flags[l.Idx(x+dx, y+dy, z)] {
				case core.Wall, core.MovingWall:
					return false
				}
			}
		}
	}
	return true
}

// CleanColumns and MixedColumns report the partition sizes.
func (e *Engine) CleanColumns() int { return len(e.cleanCols) }

// MixedColumns reports the number of MPE-handled columns.
func (e *Engine) MixedColumns() int { return len(e.mixedCols) }

// mpeColumnTime is the simulated MPE cost of updating n cells through the
// plain cache path.
func (e *Engine) mpeColumnTime(cells int) float64 {
	bw := float64(cells) * BytesPerCell / e.Spec.MPEBandwidth
	fl := float64(cells) * FlopsPerCell / e.Spec.MPEFlops
	return math.Max(bw, fl)
}

// Step advances the lattice one time step. Halo values (periodic wrap or
// boundary conditions) must have been applied to the source buffer by the
// caller, exactly as for core.StepFused. It returns the simulated step
// time on the Sunway core group.
//
// Step's own loops only dispatch columns (one int32 id per column);
// the lattice traffic they trigger is budgeted on core's kernels.
//
//lbm:hot traffic budget=8
func (e *Engine) Step() float64 {
	l := e.Lat
	if !e.Opt.UseCPEs {
		// MPE-only baseline: the whole domain through the cache path.
		for _, col := range e.allCols {
			x, y := int(col)/l.NY, int(col)%l.NY
			l.StepRegion(x, x+1, y, y+1)
		}
		e.LastMPETime = e.mpeColumnTime(l.NX * l.NY * l.NZ)
		e.LastCPETime = 0
		e.LastTime = e.LastMPETime
		l.CompleteStep()
		e.traceStep()
		return e.LastTime
	}

	// CPE cluster handles the clean columns (the kernel binds the lattice
	// buffers before the MPE loop below can touch them)...
	kernel := e.cpeKernel()
	go func() {
		e.done <- e.CG.Run(kernel)
	}()
	// ...while the MPE concurrently computes the mixed columns
	// (collaboration scheme, Fig. 9(2)). The column sets are disjoint,
	// so the destination writes never overlap.
	for _, col := range e.mixedCols {
		x, y := int(col)/l.NY, int(col)%l.NY
		l.StepRegion(x, x+1, y, y+1)
	}
	e.LastMPETime = e.mpeColumnTime(len(e.mixedCols) * l.NZ)
	e.LastCPETime = <-e.done
	// MPE and CPEs run concurrently; the step ends when both finish.
	e.LastTime = math.Max(e.LastCPETime, e.LastMPETime)
	l.CompleteStep()
	e.traceStep()
	return e.LastTime
}

// Price is the modelled time of one step of the lattice, which it does
// not touch: the timing of Step, and its Sim-clock spans, DMA and
// inter-CPE counters and core-group time, without moving a population.
// The first call after New or Rebuild measures the step under the flags
// the lattice then holds (halo included): Step runs once on a scratch
// double-buffer lattice of the same shape and flags, on a core group of
// its own, and the scratch is released. Every CPE's clock depends only on
// its own sequence of operations (Recv never waits on a sender's clock),
// so that is the time every later Step of these flags takes, bit for bit.
func (e *Engine) Price() float64 {
	if !e.priced {
		e.measure()
	}
	e.CG.TotalTime += e.LastCPETime // 0 on the MPE-only baseline
	e.CG.Counters.Add(e.stepTraffic)
	e.traceStep()
	return e.LastTime
}

// measure runs Step once on a scratch engine over a copy of the
// lattice's shape and flags (core.Lattice.Blank) and keeps its times and
// traffic; Rebuild keeps e's own column counts current (MixedColumns).
func (e *Engine) measure() {
	e.Rebuild()
	x, err := New(e.Lat.Blank(), e.Spec, e.Opt)
	if err != nil {
		panic(err) // e passed the same LDM check in New
	}
	x.Step()
	e.LastMPETime, e.LastCPETime, e.LastTime = x.LastMPETime, x.LastCPETime, x.LastTime
	e.stepTraffic, e.priced = x.CG.Counters, true
}

// traceStep records the step's MPE/CPE breakdown on the Sim clock: both
// engines start together at the cursor (they run concurrently, Fig.
// 9(2)) on their own tracks, and the cumulative DMA / register-
// communication traffic is sampled as counters — the paper's
// data-movement story, per step. Recording happens on the rank
// goroutine after the CPE join, so each track stays single-writer.
func (e *Engine) traceStep() {
	if e.tr == nil {
		return
	}
	t0 := e.simCursor
	if e.LastMPETime > 0 {
		e.tr.Span(trace.Sim, trace.TrackMPE, "mpe-kernel", t0, t0+e.LastMPETime)
	}
	if e.LastCPETime > 0 {
		e.tr.Span(trace.Sim, trace.TrackCPE, "cpe-kernel", t0, t0+e.LastCPETime)
	}
	e.simCursor = t0 + e.LastTime
	e.tr.Counter(trace.Sim, trace.TrackDMA, "dma_bytes", e.simCursor, float64(e.CG.Counters.DMABytes))
	e.tr.Counter(trace.Sim, trace.TrackDMA, "intercpe_bytes", e.simCursor, float64(e.CG.Counters.InterCPEBytes))
}

// TotalTime returns the cumulative simulated time of the CPE cluster's
// steps (an MPE-only engine never runs it).
func (e *Engine) TotalTime() float64 { return e.CG.TotalTime }

// Report summarises the engine's cumulative activity in the paper's
// reporting units.
type Report struct {
	// Steps, SimTime: step count and simulated seconds on the CG.
	Steps   int
	SimTime float64
	// Rate is the average simulated update rate; BWUtil the fraction of
	// the chip's roofline (DMABandwidth ÷ 380 B/LUP) achieved.
	Rate   float64 // LUPS
	BWUtil float64
	// DMABytes and InterCPEBytes are total traffic counters.
	DMABytes, InterCPEBytes int64
}

// Report computes the summary; cellsPerStep is the subdomain size.
func (e *Engine) Report(steps int) Report {
	r := Report{
		Steps:         steps,
		SimTime:       e.CG.TotalTime,
		DMABytes:      e.CG.Counters.DMABytes,
		InterCPEBytes: e.CG.Counters.InterCPEBytes,
	}
	if e.CG.TotalTime > 0 {
		cells := float64(e.Lat.NX) * float64(e.Lat.NY) * float64(e.Lat.NZ)
		r.Rate = cells * float64(steps) / e.CG.TotalTime
		r.BWUtil = r.Rate * BytesPerCell / e.Spec.DMABandwidth
	}
	return r
}
