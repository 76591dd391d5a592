package gpu

import (
	"fmt"
	"math"

	"sunwaylb/internal/core"
	"sunwaylb/internal/trace"
)

// Engine prices a lattice's steps on the GPU node model: the CUDA port
// computes the same update as the core kernel, so a rank or patch steps
// its lattice on the host and the engine charges the node's data-path
// timing. It is a psolve.Device, so a distributed run models a multi-node
// GPU cluster the same way swlb.Engine models Sunway core groups.
type Engine struct {
	Lat  *core.Lattice
	Spec Spec
	Opt  Options

	// LastTime is the modelled node time of the last step; TotalTime
	// accumulates.
	LastTime  float64
	TotalTime float64

	// tr records per-step kernel vs H2D/D2H/NCCL phase spans on the
	// rank's Sim-clock timeline; simCursor is the engine's position on
	// that clock. Nil disables recording.
	tr        *trace.RankTracer
	simCursor float64
}

// NewEngine validates the configuration and builds the engine.
func NewEngine(lat *core.Lattice, spec Spec, opt Options) (*Engine, error) {
	if spec.GPUsPerNode < 1 || spec.DeviceBandwidth <= 0 {
		return nil, fmt.Errorf("gpu: invalid spec %+v", spec)
	}
	return &Engine{Lat: lat, Spec: spec, Opt: opt}, nil
}

// SetTrace binds the engine to a rank's trace handle (psolve.Device);
// nil disables recording. The Sim cursor resumes at the rank's watermark
// so supervised restarts extend the modelled timeline instead of
// overlapping it.
func (e *Engine) SetTrace(tr *trace.RankTracer) {
	e.tr = tr
	e.simCursor = tr.SimWatermark()
}

// Price returns the modelled GPU-node time of one step of the lattice
// (NodeStepTime), adds it to TotalTime and lays its phases (StepPhases)
// on the Sim clock.
func (e *Engine) Price() float64 {
	e.LastTime = e.Spec.NodeStepTime(e.Lat.NX, e.Lat.NY, e.Lat.NZ, e.Opt)
	e.TotalTime += e.LastTime
	e.traceStep()
	return e.LastTime
}

// traceStep lays the step's phase decomposition onto the Sim clock:
// kernel phases on the gpu-kernel track, copies/NCCL/host MPI on the
// gpu-comm track. With Overlap the comm chain starts alongside the
// kernel (separate CUDA streams); otherwise it follows the kernel. The
// cursor then advances by the authoritative NodeStepTime, clamped so
// ulp-level drift between the phase sum and the model total can never
// break per-track timestamp monotonicity.
func (e *Engine) traceStep() {
	if e.tr == nil {
		return
	}
	t0 := e.simCursor
	kCur, cCur := t0, t0
	for _, p := range e.Spec.StepPhases(e.Lat.NX, e.Lat.NY, e.Lat.NZ, e.Opt) {
		switch p.Name {
		case "kernel", "cpu-kernel":
			e.tr.Span(trace.Sim, trace.TrackGPU, p.Name, kCur, kCur+p.Sec)
			kCur += p.Sec
			if !e.Opt.Overlap {
				cCur = kCur // single stream: comm follows the kernel
			}
		default:
			e.tr.Span(trace.Sim, trace.TrackGPUIO, p.Name, cCur, cCur+p.Sec)
			cCur += p.Sec
		}
	}
	e.simCursor = math.Max(t0+e.LastTime, math.Max(kCur, cCur))
}
