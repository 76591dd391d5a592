package conform

import (
	"sunwaylb/internal/core"
	"sunwaylb/internal/patch"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/swlb"
)

// patchOptions converts the case into a patch-world configuration. The
// requested tiling is fitted per axis (patch.FitTiles) so every cut axis
// still yields patches at least two cells thick (the halo protocol's
// minimum), which lets one backend definition serve every generated case
// size.
func (c *Case) patchOptions(tx, ty, tz int, workers []patch.Worker) patch.Options {
	perX, perY, perZ := c.periodic()
	return patch.Options{
		GNX: c.NX, GNY: c.NY, GNZ: c.NZ,
		TX: patch.FitTiles(tx, c.NX), TY: patch.FitTiles(ty, c.NY), TZ: patch.FitTiles(tz, c.NZ),
		Tau:         c.Tau,
		Smagorinsky: c.Smagorinsky,
		Force:       c.Force,
		PeriodicX:   perX, PeriodicY: perY, PeriodicZ: perZ,
		FaceBC:  c.faceBC(),
		Walls:   c.Walls(),
		Init:    c.Init(),
		Workers: workers,
	}
}

// coreWorkers is a roster of n workers on the default core kernel.
func coreWorkers(n int) func() []patch.Worker {
	return func() []patch.Worker { return make([]patch.Worker, n) }
}

// patchMixedWorkers stitches all three executor families into one world:
// a plain core worker, an swlb worker on the small conformance chip (the
// same 4-CPE group the swlb backends use), and the GPU node model.
func patchMixedWorkers() []patch.Worker {
	return []patch.Worker{
		{Backend: patch.BackendCore},
		{Backend: patch.BackendSunway, Stepper: func(l *core.Lattice) (psolve.Stepper, error) {
			return swlb.New(l, testChip(), swlb.DefaultOptions())
		}},
		{Backend: patch.BackendGPU},
	}
}

// patchBackend runs the case through the patch-decomposed world.
// forceEvery > 0 rotates every patch to the next worker that often,
// proving migrations preserve bit-identity mid-run.
func patchBackend(name string, tx, ty, tz, forceEvery int, workers func() []patch.Worker) Backend {
	return Backend{Name: name, Run: func(c *Case) (*core.MacroField, error) {
		opt := c.patchOptions(tx, ty, tz, workers())
		opt.ForceMigrateEvery = forceEvery
		f, _, err := patch.Run(opt, c.Steps)
		return f, err
	}}
}
