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
)

// Backend selects the device a worker models. Every worker steps its
// patches with the in-place (AA) core kernel; a modelled device prices
// those steps.
type Backend uint8

const (
	// BackendCore is the host itself: its cost is the wall clock.
	BackendCore Backend = iota
	// BackendSunway prices steps on the internal/swlb CPE-group engine.
	BackendSunway
	// BackendGPU prices steps on the internal/gpu node model.
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

// Worker describes one owner slot of the patch world: which device it
// models and how the straggler model scales its cost. The zero value is a
// clean core worker.
type Worker struct {
	Backend Backend
	// Straggle inflates this worker's per-patch cost samples (the
	// modelled "slow node"); values ≤ 1 mean no inflation. It biases the
	// balancer only — wall-clock execution is untouched, so results stay
	// bit-identical.
	Straggle float64
}

// device builds the price model of one patch lattice on this worker: nil
// for a core worker, whose steps cost what the wall clock says.
func (w Worker) device(l *core.Lattice) (psolve.Device, error) {
	switch w.Backend {
	case BackendSunway:
		return swlb.New(l, sunway.SW26010, swlb.DefaultOptions())
	case BackendGPU:
		return gpu.NewEngine(l, gpu.RTX3090Cluster, gpu.Fig11Final())
	}
	return nil, nil
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
