// Sunwaylb is the SunwayLB-Go solver front end: it assembles the
// pre-processing (geometry + boundary conditions), the D3Q19 LBM solver
// (the in-place AA kernel on a worker pool, or distributed over simulated
// MPI ranks) and the post-processing (PPM slices, checkpoints) into one
// command — the holistic framework of Fig. 4.
//
// Usage:
//
//	sunwaylb -preset cavity|channel|cylinder|urban|suboff [flags]
//	sunwaylb -case case.json [flags]
//
// Examples:
//
//	sunwaylb -preset cylinder -steps 4000 -out cyl
//	sunwaylb -preset channel -decomp 2x2 -steps 500
//	sunwaylb -preset cavity -checkpoint-every 500 -checkpoint state.cpk
//	sunwaylb -preset channel -decomp 2x2 -steps 500 -checkpoint-every 100 \
//	    -checkpoint state.cpk -max-restarts 2 \
//	    -fault-plan 'seed=42;crash@rank=1,step=250'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/config"
	"sunwaylb/internal/core"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/geometry"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/patch"
	"sunwaylb/internal/perf"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/sunway"
	"sunwaylb/internal/swio"
	"sunwaylb/internal/swlb"
	"sunwaylb/internal/trace"
	"sunwaylb/internal/vis"
)

// exitInterrupted is the exit code of a run stopped by SIGINT/SIGTERM
// after saving its state: distinct from success (0) and failure (1), so
// schedulers can tell "re-submit with -restore" from "broken".
const exitInterrupted = 3

// errInterrupted marks a run that stopped at a signal after writing its
// checkpoint.
var errInterrupted = errors.New("interrupted by signal")

// signalContext returns a context canceled by the first SIGINT/SIGTERM.
// The first signal asks the run to checkpoint and exit (code 3); a
// second signal hard-exits immediately with the conventional 130.
func signalContext() (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		log.Print("sunwaylb: signal: checkpointing and exiting (signal again to hard-exit)")
		cancel()
		<-ch
		os.Exit(130)
	}()
	return ctx, func() { signal.Stop(ch); cancel() }
}

func main() {
	log.SetFlags(0)

	// Case selection and size/step overrides.
	var (
		preset   = flag.String("preset", "", "built-in case: cavity|channel|cylinder|urban|suboff")
		caseFile = flag.String("case", "", "JSON case file (dimensions, tau/Re, steps)")
		nx       = flag.Int("nx", 0, "override x cells")
		ny       = flag.Int("ny", 0, "override y cells")
		nz       = flag.Int("nz", 0, "override z cells")
		steps    = flag.Int("steps", 0, "override time steps")
	)

	// Execution model.
	var (
		decomp    = flag.String("decomp", "", "run distributed as PXxPY simulated MPI ranks (e.g. 2x2), or 'patch' for patch decomposition")
		useSunway = flag.Bool("sunway", false, "with -decomp: run each rank's kernel on a simulated SW26010 core group")

		patchTiles     = flag.String("patch-tiles", "2x2x1", "with -decomp=patch: TXxTYxTZ patch tiling of the domain")
		patchWorkers   = flag.String("patch-workers", "core,core", "with -decomp=patch: worker roster, e.g. 'core,core*4,sunway,gpu' (*F = straggle factor)")
		rebalanceEvery = flag.Int("rebalance-every", 0, "with -decomp=patch: balance-check interval in steps (0 = never rebalance)")
	)

	// Checkpoint/restart and fault tolerance.
	var (
		cpPath      = flag.String("checkpoint", "", "checkpoint file path")
		cpEvery     = flag.Int("checkpoint-every", 0, "checkpoint interval in steps")
		restore     = flag.String("restore", "", "resume from a checkpoint file")
		faultPlan   = flag.String("fault-plan", "", "with -decomp: deterministic fault plan, e.g. 'seed=42;crash@rank=1,step=50;corrupt@ckpt=2' (see internal/fault)")
		maxRestarts = flag.Int("max-restarts", 0, "with -decomp: recovery budget of the self-healing supervisor")
		allowShrink = flag.Bool("allow-shrink", false, "with -decomp: re-decompose onto fewer ranks after a rank death")
		spareRanks  = flag.Int("spare-ranks", 0, "with -decomp PXxPY: hot-swap budget — dead ranks replaced from in-memory snapshots without shrinking (a patch world re-homes onto its survivors instead)")
		ckptLevels  = flag.String("ckpt-levels", "", "with -decomp: active checkpoint levels, e.g. '123' or '1234' (1=local 2=buddy 3=parity 4=disk; empty = disk only)")
		ckptGroup   = flag.Int("ckpt-group", 0, "with -decomp: parity-group size for L2/L3 snapshots (default 4)")
		snapEvery   = flag.Int("snapshot-every", 0, "with -decomp: in-memory snapshot wave interval in steps (0 = off)")
		detector    = flag.String("detector", "", "with -decomp: failure detector, 'deadline' (fixed timeout) or 'phi' (accrual heartbeats)")
	)

	// Output and observability.
	var (
		out        = flag.String("out", "", "output prefix for PPM slices")
		tracePath  = flag.String("trace", "", "write a Chrome trace-event JSON timeline (open in Perfetto / chrome://tracing)")
		traceBuf   = flag.Int("trace-buf", 0, "with -trace: max buffered events per rank, ring-overwritten beyond (0 = unbounded)")
		reportSecs = flag.Float64("report", 2, "progress report interval in seconds")
	)
	flag.Parse()

	cs, err := buildCase(*preset, *caseFile)
	if err != nil {
		log.Fatalf("sunwaylb: %v", err)
	}
	if *nx > 0 {
		cs.cfg.NX = *nx
	}
	if *ny > 0 {
		cs.cfg.NY = *ny
	}
	if *nz > 0 {
		cs.cfg.NZ = *nz
	}
	if *steps > 0 {
		cs.cfg.Steps = *steps
	}
	if err := cs.cfg.Validate(); err != nil {
		log.Fatalf("sunwaylb: %v", err)
	}

	var tracer *trace.Tracer
	if *tracePath != "" {
		tracer = trace.New(trace.Options{MaxEventsPerRank: *traceBuf})
	}

	ctx, stopSignals := signalContext()
	defer stopSignals()
	// exitWith funnels every run's outcome through one place: an
	// interrupted run still gets its trace written, then exits 3.
	exitWith := func(err error) {
		if err != nil && !errors.Is(err, errInterrupted) {
			log.Fatalf("sunwaylb: %v", err)
		}
		if terr := finishTrace(tracer, *tracePath); terr != nil {
			log.Fatalf("sunwaylb: %v", terr)
		}
		if err != nil {
			log.Print("sunwaylb: interrupted; checkpoint saved where configured (exit 3)")
			os.Exit(exitInterrupted)
		}
	}

	if *decomp != "" {
		d := distOpts{
			decomp:      *decomp,
			out:         *out,
			useSunway:   *useSunway,
			cpPath:      *cpPath,
			cpEvery:     *cpEvery,
			restore:     *restore,
			faultPlan:   *faultPlan,
			maxRestarts: *maxRestarts,
			allowShrink: *allowShrink,
			spareRanks:  *spareRanks,
			ckptLevels:  *ckptLevels,
			ckptGroup:   *ckptGroup,
			snapEvery:   *snapEvery,
			detector:    *detector,
			tracer:      tracer,

			patchTiles:     *patchTiles,
			patchWorkers:   *patchWorkers,
			rebalanceEvery: *rebalanceEvery,
		}
		exitWith(runDistributed(ctx, cs, d))
		return
	}
	if *faultPlan != "" {
		log.Fatal("sunwaylb: -fault-plan requires -decomp (faults target simulated MPI ranks)")
	}
	exitWith(runLocal(ctx, cs, *out, *cpPath, *cpEvery, *restore, *reportSecs, tracer))
}

// finishTrace serialises the recorded timeline as Chrome trace-event
// JSON and prints the aggregate analysis (per-phase shares, imbalance,
// stragglers). A nil tracer is a no-op.
func finishTrace(tracer *trace.Tracer, path string) error {
	if tracer == nil {
		return nil
	}
	events := tracer.Events()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote trace %s (%d events", path, len(events))
	if d := tracer.Dropped(); d > 0 {
		fmt.Printf(", %d overwritten", d)
	}
	fmt.Println("); open in https://ui.perfetto.dev")
	fmt.Print(trace.Analyze(events).String())
	return nil
}

// caseSetup bundles everything a preset defines.
type caseSetup struct {
	cfg   config.Case
	walls core.WallsFunc
	init  core.InitFunc
	bcs   func() *boundary.Set
	// faceBC and the periodic axes mirror bcs for the distributed
	// runners.
	faceBC                          map[core.Face]boundary.Condition
	periodicX, periodicY, periodicZ bool
	smag                            float64
}

func buildCase(preset, caseFile string) (*caseSetup, error) {
	if preset == "" && caseFile == "" {
		return nil, fmt.Errorf("need -preset or -case (try -preset cavity)")
	}
	var cs *caseSetup
	if preset != "" {
		var err error
		cs, err = builtinPreset(preset)
		if err != nil {
			return nil, err
		}
	}
	if caseFile != "" {
		f, err := os.Open(caseFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		c, err := config.Read(f)
		if err != nil {
			return nil, err
		}
		if cs == nil {
			// A bare case file: periodic box with the given
			// parameters.
			cs = periodicBox()
		}
		cs.cfg = *c
		if c.Smagorinsky > 0 {
			cs.smag = c.Smagorinsky
		}
	}
	return cs, nil
}

func periodicBox() *caseSetup {
	return &caseSetup{
		cfg: config.Case{Name: "periodic-box", NX: 32, NY: 32, NZ: 32, Tau: 0.8, Steps: 100},
		bcs: func() *boundary.Set {
			var s boundary.Set
			s.Add(&boundary.Periodic{Axis: 0}, &boundary.Periodic{Axis: 1}, &boundary.Periodic{Axis: 2})
			return &s
		},
		periodicX: true, periodicY: true, periodicZ: true,
	}
}

func builtinPreset(name string) (*caseSetup, error) {
	switch name {
	case "cavity":
		return &caseSetup{
			cfg: config.Case{Name: "lid-driven cavity", NX: 32, NY: 32, NZ: 32, Tau: 0.56, Steps: 2000},
			bcs: func() *boundary.Set {
				var s boundary.Set
				s.Add(
					&boundary.NoSlip{Face: core.FaceXMin}, &boundary.NoSlip{Face: core.FaceXMax},
					&boundary.NoSlip{Face: core.FaceZMin}, &boundary.NoSlip{Face: core.FaceZMax},
					&boundary.NoSlip{Face: core.FaceYMin},
					&boundary.MovingNoSlip{Face: core.FaceYMax, U: [3]float64{0.1, 0, 0}},
				)
				return &s
			},
			faceBC: map[core.Face]boundary.Condition{
				core.FaceXMin: &boundary.NoSlip{Face: core.FaceXMin},
				core.FaceXMax: &boundary.NoSlip{Face: core.FaceXMax},
				core.FaceZMin: &boundary.NoSlip{Face: core.FaceZMin},
				core.FaceZMax: &boundary.NoSlip{Face: core.FaceZMax},
				core.FaceYMin: &boundary.NoSlip{Face: core.FaceYMin},
				core.FaceYMax: &boundary.MovingNoSlip{Face: core.FaceYMax, U: [3]float64{0.1, 0, 0}},
			},
		}, nil
	case "channel":
		u := 0.05
		return &caseSetup{
			cfg: config.Case{Name: "channel flow", NX: 64, NY: 24, NZ: 16, Tau: 0.7, Steps: 1000},
			bcs: func() *boundary.Set {
				var s boundary.Set
				s.Add(
					&boundary.Periodic{Axis: 1}, &boundary.Periodic{Axis: 2},
					&boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{u, 0, 0}},
					&boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
				)
				return &s
			},
			faceBC: map[core.Face]boundary.Condition{
				core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{u, 0, 0}},
				core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
			},
			periodicY: true, periodicZ: true,
			init: func(x, y, z int) (float64, float64, float64, float64) {
				return 1, u, 0, 0
			},
		}, nil
	case "cylinder":
		u := 0.08
		d := 12.0
		walls := func(x, y, z int) bool {
			dx, dy := float64(x)+0.5-40, float64(y)+0.5-32.5
			return dx*dx+dy*dy <= (d/2)*(d/2)
		}
		return &caseSetup{
			cfg:   config.Case{Name: "flow past cylinder", NX: 160, NY: 64, NZ: 1, Re: 100, U: u, L: d, Steps: 4000},
			walls: walls,
			bcs: func() *boundary.Set {
				var s boundary.Set
				s.Add(
					&boundary.Periodic{Axis: 2},
					&boundary.FreeSlip{Face: core.FaceYMin}, &boundary.FreeSlip{Face: core.FaceYMax},
					&boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{u, 0, 0}},
					&boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
				)
				return &s
			},
			faceBC: map[core.Face]boundary.Condition{
				core.FaceYMin: &boundary.FreeSlip{Face: core.FaceYMin},
				core.FaceYMax: &boundary.FreeSlip{Face: core.FaceYMax},
				core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{u, 0, 0}},
				core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
			},
			periodicZ: true,
			init: func(x, y, z int) (float64, float64, float64, float64) {
				uy := 0.0
				if x > 40 && x < 60 && y > 32 {
					uy = 0.01 // shedding trigger
				}
				return 1, u, uy, 0
			},
		}, nil
	case "urban":
		u := 0.08
		params := geometry.DefaultUrbanParams()
		params.SizeX, params.SizeY = 96, 96
		params.BlocksX, params.BlocksY = 6, 6
		params.MinHeight, params.MaxHeight = 4, 16
		city := geometry.City(params)
		g := geometry.VoxelGrid{NX: 96, NY: 96, NZ: 24, H: 1}
		walls := g.Walls(geometry.Voxelize(city, g))
		profile := func(x, y, z int) [3]float64 {
			return [3]float64{u * float64(z+1) / 24.0, 0, 0}
		}
		return &caseSetup{
			cfg:   config.Case{Name: "urban wind", NX: 96, NY: 96, NZ: 24, Tau: 0.52, Steps: 600},
			smag:  0.17,
			walls: walls,
			bcs: func() *boundary.Set {
				var s boundary.Set
				s.Add(
					&boundary.Periodic{Axis: 1},
					&boundary.VelocityInlet{Face: core.FaceXMin, Profile: profile},
					&boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
					&boundary.FreeSlip{Face: core.FaceZMax},
					&boundary.NoSlip{Face: core.FaceZMin},
				)
				return &s
			},
			faceBC: map[core.Face]boundary.Condition{
				core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, Profile: profile},
				core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
				core.FaceZMax: &boundary.FreeSlip{Face: core.FaceZMax},
				core.FaceZMin: &boundary.NoSlip{Face: core.FaceZMin},
			},
			periodicY: true,
			init: func(x, y, z int) (float64, float64, float64, float64) {
				p := profile(x, y, z)
				return 1, p[0], p[1], p[2]
			},
		}, nil
	case "suboff":
		u := 0.06
		hull := geometry.Suboff(30, 24, 24, 90, 6)
		g := geometry.VoxelGrid{NX: 180, NY: 48, NZ: 48, H: 1}
		walls := g.Walls(geometry.Voxelize(hull, g))
		return &caseSetup{
			cfg:   config.Case{Name: "DARPA Suboff", NX: 180, NY: 48, NZ: 48, Tau: 0.53, Steps: 1200},
			smag:  0.17,
			walls: walls,
			bcs: func() *boundary.Set {
				var s boundary.Set
				s.Add(
					&boundary.FreeSlip{Face: core.FaceYMin}, &boundary.FreeSlip{Face: core.FaceYMax},
					&boundary.FreeSlip{Face: core.FaceZMin}, &boundary.FreeSlip{Face: core.FaceZMax},
					&boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{u, 0, 0}},
					&boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
				)
				return &s
			},
			faceBC: map[core.Face]boundary.Condition{
				core.FaceYMin: &boundary.FreeSlip{Face: core.FaceYMin},
				core.FaceYMax: &boundary.FreeSlip{Face: core.FaceYMax},
				core.FaceZMin: &boundary.FreeSlip{Face: core.FaceZMin},
				core.FaceZMax: &boundary.FreeSlip{Face: core.FaceZMax},
				core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{u, 0, 0}},
				core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
			},
			init: func(x, y, z int) (float64, float64, float64, float64) {
				return 1, u, 0, 0
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown preset %q (cavity|channel|cylinder|urban|suboff)", name)
}

// genericShare is the path line's tail naming the share of z-rows a step
// hands to the generic sweep (rows by walls, or all of them off the D3Q19
// fast path), counted once under the flags the last step saw; empty when
// every row ran the unrolled kernel.
func genericShare(lat *core.Lattice) string {
	m := lat.GenericRows()
	if m == 0 {
		return ""
	}
	return fmt.Sprintf(", %.1f%% of rows generic", 100*float64(m)/float64(lat.NX*lat.NY))
}

func runLocal(ctx context.Context, cs *caseSetup, out, cpPath string, cpEvery int, restore string, reportSecs float64, tracer *trace.Tracer) error {
	var lat *core.Lattice
	var err error
	startStep := 0
	start := time.Now()
	if restore != "" {
		lat, err = swio.Restart(restore)
		if err != nil {
			return err
		}
		startStep = lat.Step()
		fmt.Printf("restored %q at step %d\n", restore, startStep)
	} else {
		lat, err = core.BuildLattice(&lattice.D3Q19, core.Box{NX: cs.cfg.NX, NY: cs.cfg.NY, NZ: cs.cfg.NZ},
			cs.cfg.Tau, cs.walls, cs.init)
		if err != nil {
			return err
		}
		lat.Smagorinsky = cs.smag
	}
	build := time.Since(start)

	bcs := cs.bcs()
	fmt.Printf("%s: %d×%d×%d cells, tau=%.4f, %d steps, %d fluid cells\n",
		cs.cfg.Name, lat.NX, lat.NY, lat.NZ, lat.Tau, cs.cfg.Steps, lat.FluidCells())

	// One stepping path: the in-place AA kernel behind the persistent pool
	// (a restored odd-step state is permuted into the odd layout here),
	// which runs the conditions inside its sweep and times them.
	pool := core.NewPool(lat, 0)
	defer pool.Close()

	cells := int64(lat.FluidCells())
	mon := perf.NewMonitor(cells)
	tr := tracer.ForRank(0) // local runs trace as rank 0; nil-safe
	lastReport := time.Now()
	for s := startStep + 1; s <= cs.cfg.Steps; s++ {
		// First SIGINT/SIGTERM: save state at the step boundary and leave
		// with the interrupted exit code; -restore picks up right here.
		if ctx.Err() != nil {
			if cpPath != "" {
				if err := swio.Checkpoint(cpPath, lat); err != nil {
					return err
				}
				fmt.Printf("interrupt checkpoint %s at step %d\n", cpPath, lat.Step())
			}
			return errInterrupted
		}
		var endStep func()
		if tr != nil {
			endStep = tr.Scope(trace.TrackStep, "step")
		}
		mon.StepStart()
		pool.StepFaces(bcs)
		mon.StepEnd()
		if endStep != nil {
			endStep()
		}
		if cpEvery > 0 && cpPath != "" && s%cpEvery == 0 {
			var endCkpt func()
			if tr != nil {
				endCkpt = tr.Scope(trace.TrackCkpt, "ckpt-write")
			}
			err := swio.Checkpoint(cpPath, lat)
			if endCkpt != nil {
				endCkpt()
			}
			if err != nil {
				return err
			}
		}
		if now := time.Now(); now.Sub(lastReport).Seconds() >= reportSecs {
			fmt.Printf("  step %6d/%d  %s  max|u|=%.4f\n",
				s, cs.cfg.Steps, mon.Rate(), lat.MaxVelocity())
			lastReport = now
		}
	}
	if n := mon.Steps(); n > 0 {
		bcMs := pool.FaceTime().Seconds() * 1e3 / float64(n)
		fmt.Printf("completed: %s\n", mon.Summary())
		fmt.Printf("  kernel %.2f ms/step, boundary %.2f ms/step, path: %s%s\n",
			mon.Mean()*1e3-bcMs, bcMs, pool.Kernel(), genericShare(lat))
	}
	outStart := time.Now()
	if cpPath != "" {
		if err := swio.Checkpoint(cpPath, lat); err != nil {
			return err
		}
		fmt.Printf("wrote checkpoint %s\n", cpPath)
	}
	if out != "" {
		// Only the two planes the images draw: a plane field's own middle
		// plane is the lattice's.
		z := core.NewMacroField(lat.NX, lat.NY, 1)
		lat.MacroInto(z, 0, 0, 0, core.Box{Z0: lat.NZ / 2, NX: lat.NX, NY: lat.NY, NZ: 1})
		y := core.NewMacroField(lat.NX, 1, lat.NZ)
		lat.MacroInto(y, 0, 0, 0, core.Box{Y0: lat.NY / 2, NX: lat.NX, NY: 1, NZ: lat.NZ})
		if err := writeImages(z, y, out); err != nil {
			return err
		}
	}
	fmt.Printf("setup: build %.1f ms, output %.1f ms\n", build.Seconds()*1e3, time.Since(outStart).Seconds()*1e3)
	return nil
}

// distOpts bundles the distributed-run flags.
type distOpts struct {
	decomp      string
	out         string
	useSunway   bool
	cpPath      string
	cpEvery     int
	restore     string
	faultPlan   string
	maxRestarts int
	allowShrink bool
	spareRanks  int
	ckptLevels  string
	ckptGroup   int
	snapEvery   int
	detector    string
	tracer      *trace.Tracer

	patchTiles     string
	patchWorkers   string
	rebalanceEvery int
}

// supervised reports whether the run needs the self-healing supervisor
// (any checkpointing, restore, fault injection or recovery budget).
func (d distOpts) supervised() bool {
	return d.cpPath != "" || d.cpEvery > 0 || d.restore != "" ||
		d.faultPlan != "" || d.maxRestarts > 0 || d.allowShrink ||
		d.spareRanks > 0 || d.snapEvery > 0 || d.ckptLevels != "" ||
		d.detector != ""
}

func runDistributed(ctx context.Context, cs *caseSetup, d distOpts) error {
	if strings.ToLower(d.decomp) == "patch" {
		return runPatch(ctx, cs, d)
	}
	var px, py int
	if _, err := fmt.Sscanf(strings.ToLower(d.decomp), "%dx%d", &px, &py); err != nil || px < 1 || py < 1 {
		return fmt.Errorf("bad -decomp %q, want e.g. 2x2 or patch", d.decomp)
	}
	opts := psolve.Options{
		GNX: cs.cfg.NX, GNY: cs.cfg.NY, GNZ: cs.cfg.NZ,
		PX: px, PY: py,
		Tau:         cs.cfg.Tau,
		Smagorinsky: cs.smag,
		FaceBC:      cs.faceBC,
		PeriodicX:   cs.periodicX,
		PeriodicY:   cs.periodicY,
		PeriodicZ:   cs.periodicZ,
		Walls:       cs.walls,
		Init:        cs.init,
		Trace:       d.tracer,
	}
	if d.useSunway {
		opts.Stepper = func(lat *core.Lattice) (psolve.Stepper, error) {
			return swlb.New(lat, sunway.SW26010, swlb.DefaultOptions())
		}
		fmt.Printf("%s: %d×%d×%d cells over %d×%d ranks × simulated SW26010 CGs, %d steps\n",
			cs.cfg.Name, cs.cfg.NX, cs.cfg.NY, cs.cfg.NZ, px, py, cs.cfg.Steps)
	} else {
		fmt.Printf("%s: %d×%d×%d cells over %d×%d simulated MPI ranks, %d steps\n",
			cs.cfg.Name, cs.cfg.NX, cs.cfg.NY, cs.cfg.NZ, px, py, cs.cfg.Steps)
	}

	start := time.Now()
	var m *core.MacroField
	var err error
	var stats perf.RecoveryStats
	var path string // the kernel rank 0 ran (unsupervised runs)
	startStep := 0
	if d.supervised() {
		var o psolve.SupervisorOptions
		if o, err = d.superviseOpts(ctx, cs.cfg.Steps); err != nil {
			return err
		}
		opts.Restore = o.Opts.Restore
		o.Opts = opts
		if opts.Restore != nil {
			startStep = opts.Restore.Step()
		}
		m, stats, err = psolve.Supervise(o)
		if err = reportSupervised(o, stats, err); err != nil {
			return err
		}
	} else {
		// psolve.Run, kept here so rank 0 can say which kernel it ran.
		w, werr := mpi.NewWorld(px * py)
		if werr != nil {
			return werr
		}
		w.SetTracer(opts.Trace)
		err = mpi.RunWorld(w, func(c *mpi.Comm) error {
			s, err := psolve.New(c, opts)
			if err != nil {
				return err
			}
			for i := 0; i < cs.cfg.Steps; i++ {
				s.Step()
			}
			if g := s.GatherMacro(0); g != nil {
				m, path = g, s.Lat.KernelPath()
			}
			return nil
		})
		if err != nil {
			return err
		}
		if d.useSunway {
			// The custom stepper installed above, not the lattice's own.
			path = "swlb " + strings.ToLower(sunway.SW26010.Name)
		}
	}
	elapsed := time.Since(start).Seconds()
	cells := int64(cs.cfg.NX) * int64(cs.cfg.NY) * int64(cs.cfg.NZ)
	doneSteps := cs.cfg.Steps - startStep
	fmt.Printf("completed %d steps in %.2f s: %s aggregate\n",
		doneSteps, elapsed, perf.Rate(cells*int64(doneSteps), elapsed))
	if path != "" {
		fmt.Printf("  path: %s ranks×%d\n", path, px*py)
	}
	if stats.SnapshotWaves > 0 {
		fmt.Println(stats.SnapshotLine())
	}
	if d.out != "" {
		return writeImages(m, m, d.out)
	}
	return nil
}

// runPatch executes -decomp=patch: the domain is tiled into patches
// assigned to a heterogeneous worker roster, with optional periodic
// rebalancing and the recovery ladder when fault-tolerance flags are
// set. Mirrors runDistributed's boundary conventions (x is never
// periodic; y/z follow the case).
func runPatch(ctx context.Context, cs *caseSetup, d distOpts) error {
	if d.useSunway {
		return fmt.Errorf("-sunway is meaningless with -decomp=patch; put 'sunway' workers in -patch-workers instead")
	}
	var tx, ty, tz int
	if _, err := fmt.Sscanf(strings.ToLower(d.patchTiles), "%dx%dx%d", &tx, &ty, &tz); err != nil || tx < 1 || ty < 1 || tz < 1 {
		return fmt.Errorf("bad -patch-tiles %q, want e.g. 2x2x1", d.patchTiles)
	}
	workers, err := patch.ParseWorkers(d.patchWorkers)
	if err != nil {
		return err
	}
	opts := patch.Options{
		GNX: cs.cfg.NX, GNY: cs.cfg.NY, GNZ: cs.cfg.NZ,
		TX: tx, TY: ty, TZ: tz,
		Tau:            cs.cfg.Tau,
		Smagorinsky:    cs.smag,
		FaceBC:         cs.faceBC,
		PeriodicX:      cs.periodicX,
		PeriodicY:      cs.periodicY,
		PeriodicZ:      cs.periodicZ,
		Walls:          cs.walls,
		Init:           cs.init,
		Workers:        workers,
		RebalanceEvery: d.rebalanceEvery,
		Trace:          d.tracer,
	}
	fmt.Printf("%s: %d×%d×%d cells as %d×%d×%d patches over %d workers (%s), %d steps\n",
		cs.cfg.Name, cs.cfg.NX, cs.cfg.NY, cs.cfg.NZ, tx, ty, tz, len(workers), d.patchWorkers, cs.cfg.Steps)

	start := time.Now()
	var m *core.MacroField
	var stats *patch.Stats
	var rec perf.RecoveryStats
	startStep := 0
	if d.supervised() {
		o, err := d.superviseOpts(ctx, cs.cfg.Steps)
		if err != nil {
			return err
		}
		if o.Opts.Restore != nil {
			startStep = o.Opts.Restore.Step()
		}
		w, err := patch.NewWorld(opts)
		if err != nil {
			return err
		}
		m, rec, err = psolve.SuperviseOn(w, o)
		if err = reportSupervised(o, rec, err); err != nil {
			return err
		}
		stats = w.Stats()
	} else if m, stats, err = patch.Run(opts, cs.cfg.Steps); err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	cells := int64(cs.cfg.NX) * int64(cs.cfg.NY) * int64(cs.cfg.NZ)
	doneSteps := cs.cfg.Steps - startStep
	fmt.Printf("completed %d steps in %.2f s: %s aggregate\n",
		doneSteps, elapsed, perf.Rate(cells*int64(doneSteps), elapsed))
	fmt.Printf("  path: %s patches×%d on %d workers\n", stats.Kernel, stats.Patches, stats.Workers)
	fmt.Printf("patches: %d over %d workers, %d migrations in %d rebalances",
		stats.Patches, stats.Workers, stats.Migrations, stats.Rebalances)
	if stats.ImbalancePre > 0 {
		fmt.Printf(", imbalance %.2f → %.2f", stats.ImbalancePre, stats.ImbalancePost)
	}
	fmt.Println()
	if rec.SnapshotWaves > 0 {
		fmt.Println(rec.SnapshotLine())
	}
	if d.out != "" {
		return writeImages(m, m, d.out)
	}
	return nil
}

// superviseOpts builds the recovery ladder's options from the resilience
// flags — the same for rank and patch worlds — including the fault plan
// and the -restore seed.
func (d distOpts) superviseOpts(ctx context.Context, steps int) (psolve.SupervisorOptions, error) {
	o := psolve.SupervisorOptions{
		Ctx:             ctx,
		Steps:           steps,
		CheckpointEvery: d.cpEvery,
		CheckpointPath:  d.cpPath,
		MaxRestarts:     d.maxRestarts,
		AllowShrink:     d.allowShrink,
		SnapshotEvery:   d.snapEvery,
		GroupSize:       d.ckptGroup,
		SpareRanks:      d.spareRanks,
		Detector:        d.detector,
		Logf:            log.Printf,
	}
	o.Opts.Trace = d.tracer
	if d.restore != "" {
		lat, err := swio.Restart(d.restore)
		if err != nil {
			return o, err
		}
		o.Opts.Restore = lat
		fmt.Printf("restored %q at step %d\n", d.restore, lat.Step())
	}
	if d.faultPlan != "" {
		plan, err := fault.ParsePlan(d.faultPlan)
		if err != nil {
			return o, err
		}
		o.Injector = fault.NewInjector(plan)
		fmt.Printf("fault plan: %s\n", plan)
	}
	if d.ckptLevels != "" {
		levels, err := resil.ParseLevels(d.ckptLevels)
		if err != nil {
			return o, err
		}
		o.Levels = levels
	}
	return o, nil
}

// reportSupervised reports the injected faults and any recovery of a run
// the recovery ladder finished under o with the given stats and error. A
// canceled run has drained its newest recoverable state into -checkpoint
// (when set) and ends in errInterrupted.
func reportSupervised(o psolve.SupervisorOptions, stats perf.RecoveryStats, err error) error {
	if errors.Is(err, psolve.ErrCanceled) {
		fmt.Printf("interrupted: %v\n", err)
		return errInterrupted
	}
	if err != nil {
		return err
	}
	if o.Injector != nil {
		fmt.Printf("faults injected: %s\n", o.Injector.Stats())
	}
	if !stats.Clean() {
		fmt.Printf("recovery: %s\n", stats)
	}
	return nil
}

// writeImages draws |u| on the middle z plane of z and the middle y plane
// of y: a gathered global field for both, or a field holding that one
// plane each.
func writeImages(z, y *core.MacroField, prefix string) error {
	write := func(name string, s *vis.Slice) error {
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := vis.WritePPM(f, s, 0, 0); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", name)
		return nil
	}
	if err := write(prefix+"_speed_z.ppm", vis.SpeedSlice(z, vis.AxisZ, z.NZ/2)); err != nil {
		return err
	}
	return write(prefix+"_speed_y.ppm", vis.SpeedSlice(y, vis.AxisY, y.NY/2))
}
