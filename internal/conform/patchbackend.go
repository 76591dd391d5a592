package conform

import (
	"sunwaylb/internal/core"
	"sunwaylb/internal/patch"
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

// patchMixedWorkers stitches all three device families into one world: a
// core worker, a worker priced on the simulated SW26010 and one on the GPU
// node model.
func patchMixedWorkers() []patch.Worker {
	return []patch.Worker{
		{Backend: patch.BackendCore},
		{Backend: patch.BackendSunway},
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
