package patch

import (
	"fmt"
	"strconv"
	"strings"

	"sunwaylb/internal/core"
	"sunwaylb/internal/gpu"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/sunway"
	"sunwaylb/internal/swlb"
	"sunwaylb/internal/trace"
)

// Backend selects the executor a worker uses to advance its patches.
type Backend uint8

const (
	// BackendCore steps patches with the in-place (AA) core kernel.
	BackendCore Backend = iota
	// BackendSunway steps patches with the internal/swlb CPE-group engine.
	BackendSunway
	// BackendGPU steps patches with the internal/gpu engine.
	BackendGPU
)

func (b Backend) String() string {
	switch b {
	case BackendCore:
		return "core"
	case BackendSunway:
		return "sunway"
	case BackendGPU:
		return "gpu"
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// Worker describes one owner slot of the patch world: which executor it
// runs and how the straggler model scales its measured cost. The zero
// value is a clean core-kernel worker.
type Worker struct {
	Backend Backend
	// Straggle inflates this worker's per-patch cost samples (the
	// modelled "slow node"); values ≤ 1 mean no inflation. It biases the
	// balancer only — wall-clock execution is untouched, so results stay
	// bit-identical.
	Straggle float64
	// Stepper overrides the backend's default executor factory; nil uses
	// the factory implied by Backend.
	Stepper func(*core.Lattice) (psolve.Stepper, error)
}

// coreKernel reports whether the worker steps its patches with the
// default core kernel — the case whose patch lattices use AA storage.
func (w Worker) coreKernel() bool { return w.Stepper == nil && w.Backend == BackendCore }

// coreStepper adapts the core kernel to the psolve.Stepper contract (zero
// sim-time: the wall clock is the measurement).
type coreStepper struct{ l *core.Lattice }

func (s coreStepper) Step() float64 { s.l.StepFused(); return 0 }
func (s coreStepper) Rebuild()      {}

// newStepper builds the executor for one patch lattice on this worker.
func (w Worker) newStepper(l *core.Lattice) (psolve.Stepper, error) {
	if w.Stepper != nil {
		return w.Stepper(l)
	}
	switch w.Backend {
	case BackendSunway:
		return swlb.New(l, sunway.SW26010, swlb.DefaultOptions())
	case BackendGPU:
		return gpu.NewEngine(l, gpu.RTX3090Cluster, gpu.Fig11Final())
	default:
		return coreStepper{l: l}, nil
	}
}

// traceSetter mirrors psolve's: steppers that can record their internal
// phases accept the rank's trace handle.
type traceSetter interface {
	SetTrace(tr *trace.RankTracer)
}

// ParseWorkers parses a worker roster like "core,core*8,sunway,gpu":
// a comma-separated list of backend names, each optionally scaled by a
// straggle factor (`name*F`) and repeatable as `name xN` is not — write
// the entry N times instead. Whitespace around entries is ignored.
func ParseWorkers(s string) ([]Worker, error) {
	var out []Worker
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(strings.ToLower(tok))
		if tok == "" {
			continue
		}
		name, factor := tok, ""
		if i := strings.IndexByte(tok, '*'); i >= 0 {
			name, factor = tok[:i], tok[i+1:]
		}
		var w Worker
		switch name {
		case "core", "cpu":
			w.Backend = BackendCore
		case "sunway", "swlb":
			w.Backend = BackendSunway
		case "gpu":
			w.Backend = BackendGPU
		default:
			return nil, fmt.Errorf("patch: unknown worker backend %q (want core|sunway|gpu)", name)
		}
		if factor != "" {
			f, err := strconv.ParseFloat(factor, 64)
			if err != nil || f <= 0 {
				return nil, fmt.Errorf("patch: bad straggle factor %q in %q", factor, tok)
			}
			w.Straggle = f
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("patch: empty worker roster %q", s)
	}
	return out, nil
}
