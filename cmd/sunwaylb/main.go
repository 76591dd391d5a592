// Sunwaylb is the SunwayLB-Go solver front end: it assembles the
// pre-processing (geometry + boundary conditions), the D3Q19 LBM solver
// (the in-place AA kernel on a worker pool, or distributed over simulated
// MPI ranks or patches) and the post-processing (PPM slices, checkpoints)
// into one command — the holistic framework of Fig. 4. Every run, the
// single rank included, goes through the one recovery ladder
// (psolve.SuperviseOn), so the checkpoint, restore and fault flags mean the
// same on every world.
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
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/config"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/geometry"
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

// errSunwayPatch refuses -sunway on the patch world, whose roster names
// each worker's device.
var errSunwayPatch = errors.New("-sunway does not apply to -decomp patch: put 'sunway' workers in -patch-workers instead")

// errNoWaves refuses in-memory checkpoint levels without a wave cadence:
// only snapshot waves fill them, so the run would hold nothing to recover
// from.
var errNoWaves = errors.New("-ckpt-levels 1, 2 or 3 needs -snapshot-every N > 0: only snapshot waves fill the in-memory levels")

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
	var o runOpts
	flag.StringVar(&o.decomp, "decomp", "", "run distributed as PXxPY simulated MPI ranks (e.g. 2x2), or 'patch' for patch decomposition (default: one rank)")
	flag.BoolVar(&o.useSunway, "sunway", false, "price each rank's step on a simulated SW26010 core group (one rank or -decomp PXxPY)")
	flag.StringVar(&o.patchTiles, "patch-tiles", "2x2x1", "with -decomp=patch: TXxTYxTZ patch tiling of the domain")
	flag.StringVar(&o.patchWorkers, "patch-workers", "core,core", "with -decomp=patch: worker roster, e.g. 'core,core*4,sunway,gpu' (*F = straggle factor)")
	flag.IntVar(&o.rebalanceEvery, "rebalance-every", 0, "with -decomp=patch: balance-check interval in steps (0 = never rebalance)")

	// Checkpoint/restart and fault tolerance: the recovery ladder runs
	// every world, the single rank included.
	flag.StringVar(&o.cpPath, "checkpoint", "", "checkpoint file path: periodic and interrupt checkpoints go here, and a single-rank run leaves its final state here")
	flag.IntVar(&o.cpEvery, "checkpoint-every", 0, "health-gated, read-back-verified checkpoint interval in steps (0 = off)")
	flag.StringVar(&o.restore, "restore", "", "resume from a checkpoint file (written by any world)")
	flag.StringVar(&o.faultPlan, "fault-plan", "", "deterministic fault plan, e.g. 'seed=42;crash@rank=1,step=50;corrupt@ckpt=2' (see internal/fault); ranks must exist in the world")
	flag.IntVar(&o.maxRestarts, "max-restarts", 0, "recovery budget of the self-healing supervisor")
	flag.BoolVar(&o.allowShrink, "allow-shrink", false, "re-decompose onto fewer ranks after a rank death")
	flag.IntVar(&o.spareRanks, "spare-ranks", 0, "hot-swap budget of a -decomp PXxPY world — dead ranks replaced from in-memory snapshots without shrinking (a patch world re-homes onto its survivors instead)")
	flag.StringVar(&o.ckptLevels, "ckpt-levels", "", "active checkpoint levels, e.g. '123' or '1234' (1=local 2=buddy 3=parity 4=disk; empty = disk only); levels 1-3 need -snapshot-every")
	flag.IntVar(&o.ckptGroup, "ckpt-group", 0, "parity-group size for L2/L3 snapshots (default 4)")
	flag.IntVar(&o.snapEvery, "snapshot-every", 0, "in-memory snapshot wave interval in steps (0 = off; required by -ckpt-levels 1, 2 or 3)")
	flag.StringVar(&o.detector, "detector", "", "failure detector, 'deadline' (fixed timeout) or 'phi' (accrual heartbeats)")

	// Output and observability.
	var (
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON timeline (open in Perfetto / chrome://tracing)")
		traceBuf  = flag.Int("trace-buf", 0, "with -trace: max buffered events per rank, ring-overwritten beyond (0 = unbounded)")
	)
	flag.StringVar(&o.out, "out", "", "output prefix for PPM slices")
	flag.Float64Var(&o.reportSecs, "report", 2, "progress report interval in seconds")
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
	if *tracePath != "" {
		o.tracer = trace.New(trace.Options{MaxEventsPerRank: *traceBuf})
	}

	ctx, stopSignals := signalContext()
	defer stopSignals()
	w, err := newWorld(cs, o)
	if err == nil {
		err = run(ctx, w, o)
	}
	// Every run's outcome ends here: an interrupted run still gets its
	// trace written, then exits 3.
	if err != nil && !errors.Is(err, errInterrupted) {
		log.Fatalf("sunwaylb: %v", err)
	}
	if terr := finishTrace(o.tracer, *tracePath); terr != nil {
		log.Fatalf("sunwaylb: %v", terr)
	}
	if err != nil {
		log.Print("sunwaylb: interrupted; checkpoint saved where configured (exit 3)")
		os.Exit(exitInterrupted)
	}
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
	// faceBC holds the conditions of the non-periodic faces. Every world
	// applies them in one fixed face order (psolve.HaloSet on one rank).
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
			// A bare case file: a periodic box with its parameters.
			cs = &caseSetup{periodicX: true, periodicY: true, periodicZ: true}
		}
		cs.cfg = *c
		if c.Smagorinsky > 0 {
			cs.smag = c.Smagorinsky
		}
	}
	return cs, nil
}

func builtinPreset(name string) (*caseSetup, error) {
	switch name {
	case "cavity":
		return &caseSetup{
			cfg: config.Case{Name: "lid-driven cavity", NX: 32, NY: 32, NZ: 32, Tau: 0.56, Steps: 2000},
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

// runOpts bundles the run flags.
type runOpts struct {
	decomp      string
	useSunway   bool
	out         string
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
	reportSecs  float64
	tracer      *trace.Tracer

	patchTiles     string
	patchWorkers   string
	rebalanceEvery int
}

// world is the decomposition -decomp names — one rank, a rank grid or the
// patch world — as the recovery ladder drives it, plus what the summary
// says about it. It times rank 0 of every attempt: the build, each step
// and the progress lines.
type world struct {
	psolve.Decomposition
	cs *caseSetup
	// local is the one-rank world (nil on ranks and patches): the run
	// checkpoints and draws from its final lattice.
	local *psolve.Local
	// path is the summary line naming the code path the run took, and
	// device names the modelled device that prices rank r's steps.
	path   func() string
	device func(r int) string

	report time.Duration
	mon    *perf.Monitor
	build  time.Duration // rank 0's first build, restore included
	// backing says how the process's memory is backed after that build:
	// " (huge pages N MB)" where /proc/self/smaps_rollup reads.
	backing string
	rank0   psolve.Rank // rank 0 of the last attempt
	last    time.Time   // of the last progress line

	// faceTime is each rank's time on its boundary conditions over every
	// attempt and sim its modelled time on a device, added as the rank's
	// body ends (the ranks that account them: faceTime on one-rank and
	// rank-world ranks, sim on every priced rank or worker).
	mu       sync.Mutex
	faceTime map[int]time.Duration
	sim      map[int]float64
}

// newWorld lays the case over the world -decomp names and prints what
// the run is.
func newWorld(cs *caseSetup, o runOpts) (*world, error) {
	if l, err := resil.ParseLevels(o.ckptLevels); err == nil && l.Memory() && o.snapEvery <= 0 {
		return nil, errNoWaves
	}
	c := cs.cfg
	w := &world{
		cs:       cs,
		report:   time.Duration(o.reportSecs * float64(time.Second)),
		mon:      perf.NewMonitor(int64(c.NX) * int64(c.NY) * int64(c.NZ)),
		faceTime: map[int]time.Duration{},
		sim:      map[int]float64{},
	}
	opts := psolve.Options{
		GNX: c.NX, GNY: c.NY, GNZ: c.NZ,
		Tau:         c.Tau,
		Smagorinsky: cs.smag,
		FaceBC:      cs.faceBC,
		PeriodicX:   cs.periodicX,
		PeriodicY:   cs.periodicY,
		PeriodicZ:   cs.periodicZ,
		Walls:       cs.walls,
		Init:        cs.init,
		Trace:       o.tracer,
	}
	d, priced := strings.ToLower(o.decomp), ""
	if o.useSunway {
		if d == "patch" {
			return nil, errSunwayPatch
		}
		opts.Device = func(lat *core.Lattice) (psolve.Device, error) {
			return swlb.New(lat, sunway.SW26010, swlb.DefaultOptions())
		}
		dev := "swlb " + strings.ToLower(sunway.SW26010.Name)
		w.device = func(int) string { return dev }
		priced = ", priced on " + dev
	}
	var layout string // what the run is, for its first line
	switch d {
	case "":
		w.local = psolve.NewLocal(opts)
		w.Decomposition = w.local
		w.path = func() string {
			return w.split() + w.local.Kernel() + genericShare(w.local.Lattice()) + priced
		}
		layout = fmt.Sprintf("on one rank, tau=%.4f", c.Tau)
	case "patch":
		var err error
		if layout, err = w.patches(opts, o); err != nil {
			return nil, err
		}
	default:
		g, err := decomp.ParseGrid(d, 2)
		if err != nil {
			return nil, fmt.Errorf("bad -decomp %q, want e.g. 2x2 or patch: %w", o.decomp, err)
		}
		opts.PX, opts.PY = g[0], g[1]
		layout = fmt.Sprintf("over %d×%d simulated MPI ranks", opts.PX, opts.PY)
		w.Decomposition = psolve.NewRanks(opts)
		w.path = func() string {
			return fmt.Sprintf("%s%s ranks×%d%s", w.split(), w.rank0.(*psolve.Solver).Lat.KernelPath(), w.Ranks(), priced)
		}
	}
	fmt.Printf("%s: %d×%d×%d cells %s, %d steps\n", c.Name, c.NX, c.NY, c.NZ, layout, c.Steps)
	return w, nil
}

// modelled is the summary line of a run with priced ranks or workers: the
// slowest one's modelled time per step and its device; empty when no
// device priced a step.
func (w *world) modelled() string {
	slow := 0
	for r, t := range w.sim {
		if t > w.sim[slow] || t == w.sim[slow] && r < slow {
			slow = r
		}
	}
	if w.sim[slow] == 0 {
		return ""
	}
	return fmt.Sprintf("  modelled %.3f ms/step (slowest: rank %d, %s)\n",
		w.sim[slow]*1e3/float64(max(w.mon.Steps(), 1)), slow, w.device(slow))
}

// split opens the path line of a world whose ranks account their
// boundary conditions: rank 0's mean step split into the kernel and rank
// 0's own condition time per step.
func (w *world) split() string {
	k, bc := phaseSplit(w.mon.Mean()*1e3, w.faceTime[0], w.mon.Steps())
	return fmt.Sprintf("  kernel %.2f ms/step, boundary %.2f ms/step, path: ", k, bc)
}

// phaseSplit splits a rank's mean step of meanMs into kernel and
// boundary milliseconds, given the rank's time on its conditions over its
// steps. Both figures come from the one rank, so neither is negative and
// they sum to meanMs; a condition time past the steps' own (a step cut
// short by a crash counts its conditions but not its wall time) is
// capped there.
func phaseSplit(meanMs float64, bc time.Duration, steps int) (kernelMs, bcMs float64) {
	bcMs = min(bc.Seconds()*1e3/float64(max(steps, 1)), meanMs)
	return meanMs - bcMs, bcMs
}

// patches makes w the patch world of -decomp=patch: the domain tiled into
// patches assigned to a heterogeneous worker roster, with optional
// periodic rebalancing, under opts' physics and boundary conventions. It
// returns the layout for the run's first line.
func (w *world) patches(opts psolve.Options, o runOpts) (string, error) {
	tiles, err := decomp.ParseGrid(o.patchTiles, 3)
	if err != nil {
		return "", fmt.Errorf("bad -patch-tiles %q, want e.g. 2x2x1: %w", o.patchTiles, err)
	}
	workers, err := patch.ParseWorkers(o.patchWorkers)
	if err != nil {
		return "", err
	}
	pw, err := patch.NewWorld(patch.Options{
		GNX: opts.GNX, GNY: opts.GNY, GNZ: opts.GNZ,
		TX: tiles[0], TY: tiles[1], TZ: tiles[2],
		Tau:            opts.Tau,
		Smagorinsky:    opts.Smagorinsky,
		FaceBC:         opts.FaceBC,
		PeriodicX:      opts.PeriodicX,
		PeriodicY:      opts.PeriodicY,
		PeriodicZ:      opts.PeriodicZ,
		Walls:          opts.Walls,
		Init:           opts.Init,
		Workers:        workers,
		RebalanceEvery: o.rebalanceEvery,
		Trace:          opts.Trace,
	})
	if err != nil {
		return "", err
	}
	w.Decomposition = pw
	w.device = func(r int) string { return workers[r].Backend.String() }
	var devs []string // the roster's modelled devices, each once
	for _, wk := range workers {
		if b := wk.Backend.String(); wk.Backend != patch.BackendCore && !slices.Contains(devs, b) {
			devs = append(devs, b)
		}
	}
	priced := ""
	if devs != nil {
		priced = ", priced on " + strings.Join(devs, ",")
	}
	w.path = func() string {
		st := pw.Stats()
		line := fmt.Sprintf("  path: %s patches×%d on %d workers%s\npatches: %d over %d workers, %d migrations in %d rebalances",
			st.Kernel, st.Patches, st.Workers, priced, st.Patches, st.Workers, st.Migrations, st.Rebalances)
		if st.ImbalancePre > 0 {
			line += fmt.Sprintf(", imbalance %.2f → %.2f", st.ImbalancePre, st.ImbalancePost)
		}
		return line
	}
	return fmt.Sprintf("as %d×%d×%d patches over %d workers (%s)", tiles[0], tiles[1], tiles[2], len(workers), o.patchWorkers), nil
}

// NewRank builds rank c's share of an attempt; rank 0's steps are timed,
// and every rank's condition time is tallied when its body ends.
func (w *world) NewRank(c *mpi.Comm, restore *core.Lattice, steps int, straggle float64) (psolve.Rank, error) {
	t0 := time.Now()
	r, err := w.Decomposition.NewRank(c, restore, steps, straggle)
	if err != nil {
		return r, err
	}
	tr := talliedRank{Rank: r, w: w, rank: c.Rank()}
	if c.Rank() != 0 {
		return &tr, nil
	}
	if w.rank0 == nil {
		w.build = time.Since(t0)
		if mb, ok := hugePagesMB(); ok {
			w.backing = fmt.Sprintf(" (huge pages %.0f MB)", mb)
		}
	}
	w.rank0, w.last = r, time.Now()
	step := 0
	if restore != nil {
		step = restore.Step()
	}
	return &timedRank{talliedRank: tr, step: step}, nil
}

// hugePagesMB reads how much of the process's anonymous memory sits on
// transparent huge pages (AnonHugePages of /proc/self/smaps_rollup); ok is
// false where that file does not exist, as off Linux.
func hugePagesMB() (mb float64, ok bool) {
	raw, err := os.ReadFile("/proc/self/smaps_rollup")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, found := strings.CutPrefix(line, "AnonHugePages:"); found {
			var kb float64
			_, err := fmt.Sscan(v, &kb)
			return kb * 1024 / 1e6, err == nil
		}
	}
	return 0, false
}

// talliedRank is one rank of an attempt. When its body ends it adds the
// rank's condition time (FaceTime, where the rank accounts one) and its
// modelled time (SimTime) to the world's tallies and closes a rank that
// holds resources (the one-rank world's pool).
type talliedRank struct {
	psolve.Rank
	w    *world
	rank int
}

func (r *talliedRank) Close() error {
	w := r.w
	w.mu.Lock()
	if f, ok := r.Rank.(interface{ FaceTime() time.Duration }); ok {
		w.faceTime[r.rank] += f.FaceTime()
	}
	if s, ok := r.Rank.(interface{ SimTime() float64 }); ok {
		w.sim[r.rank] += s.SimTime()
	}
	w.mu.Unlock()
	if c, ok := r.Rank.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// timedRank is rank 0 of an attempt: it records every step in the world's
// monitor and prints a progress line every -report seconds.
type timedRank struct {
	talliedRank
	step int
}

func (r *timedRank) Step() {
	w := r.w
	w.mon.StepStart()
	r.Rank.Step()
	w.mon.StepEnd()
	r.step++
	if now := time.Now(); now.Sub(w.last) >= w.report {
		fmt.Printf("  step %6d/%d  %s\n", r.step, w.cs.cfg.Steps, w.mon.Rate())
		w.last = now
	}
}

// run drives w to the case's final step on the recovery ladder and prints
// the one summary: faults and recovery, the aggregate rate, the snapshot
// waves, the code path, then the final state of a single rank and the
// images.
func run(ctx context.Context, w *world, o runOpts) error {
	so, err := superviseOpts(ctx, w, o)
	if err != nil {
		return err
	}
	start := time.Now()
	m, stats, err := psolve.SuperviseOn(w, so)
	if errors.Is(err, psolve.ErrCanceled) {
		// The ladder drained the newest recoverable state into
		// -checkpoint, when set.
		fmt.Printf("interrupted: %v\n", err)
		return errInterrupted
	}
	if err != nil {
		return err
	}
	if so.Injector != nil {
		fmt.Printf("faults injected: %s\n", so.Injector.Stats())
	}
	if !stats.Clean() {
		fmt.Printf("recovery: %s\n", stats)
	}
	elapsed := time.Since(start).Seconds()
	doneSteps := w.cs.cfg.Steps
	if so.Opts.Restore != nil {
		doneSteps -= so.Opts.Restore.Step()
	}
	fmt.Printf("completed %d steps in %.2f s: %s aggregate\n",
		doneSteps, elapsed, perf.Rate(w.mon.Cells*int64(doneSteps), elapsed))
	if stats.SnapshotWaves > 0 {
		fmt.Println(stats.SnapshotLine())
	}
	fmt.Println(w.path())
	fmt.Print(w.modelled())

	outStart := time.Now()
	z, y := m, m
	if w.local != nil {
		lat := w.local.Lattice()
		if o.cpPath != "" {
			w.local.FillHalo()
			if err := swio.Checkpoint(o.cpPath, lat); err != nil {
				return err
			}
			fmt.Printf("wrote checkpoint %s\n", o.cpPath)
		}
		if o.out != "" {
			// Only the two planes the images draw: a plane field's own
			// middle plane is the lattice's.
			z = core.NewMacroField(lat.NX, lat.NY, 1)
			lat.MacroInto(z, 0, 0, 0, core.Box{Z0: lat.NZ / 2, NX: lat.NX, NY: lat.NY, NZ: 1})
			y = core.NewMacroField(lat.NX, 1, lat.NZ)
			lat.MacroInto(y, 0, 0, 0, core.Box{Y0: lat.NY / 2, NX: lat.NX, NY: 1, NZ: lat.NZ})
		}
	}
	if o.out != "" {
		if err := writeImages(z, y, o.out); err != nil {
			return err
		}
	}
	fmt.Printf("setup: build %.1f ms%s, output %.1f ms\n", w.build.Seconds()*1e3, w.backing, time.Since(outStart).Seconds()*1e3)
	return nil
}

// superviseOpts builds the recovery ladder's options from the resilience
// flags — the same for every world — including the fault plan, checked
// against w's ranks, and the -restore seed.
func superviseOpts(ctx context.Context, w *world, o runOpts) (psolve.SupervisorOptions, error) {
	so := psolve.SupervisorOptions{
		Ctx:             ctx,
		Steps:           w.cs.cfg.Steps,
		CheckpointEvery: o.cpEvery,
		CheckpointPath:  o.cpPath,
		MaxRestarts:     o.maxRestarts,
		AllowShrink:     o.allowShrink,
		SnapshotEvery:   o.snapEvery,
		GroupSize:       o.ckptGroup,
		SpareRanks:      o.spareRanks,
		Detector:        o.detector,
		Logf:            log.Printf,
	}
	so.Opts.Trace = o.tracer
	if err := so.SetPolicy(o.faultPlan, o.ckptLevels, w.Ranks()); err != nil {
		return so, err
	}
	if so.Injector != nil {
		fmt.Printf("fault plan: %s\n", so.Injector.Plan())
	}
	if w.Ranks() == 1 && (so.SpareRanks > 0 || so.Levels&(resil.L2|resil.L3) != 0) {
		// A singleton parity group holds no buddy copy and no parity.
		fmt.Println("note: one rank has no buddy and no parity partner: neither -spare-ranks nor checkpoint levels 2 and 3 can recover it, so a crash resumes from the L4 checkpoint or from step 0")
	}
	if o.restore != "" {
		lat, err := swio.Restart(o.restore)
		if err != nil {
			return so, err
		}
		so.Opts.Restore = lat
		fmt.Printf("restored %q at step %d\n", o.restore, lat.Step())
	}
	return so, nil
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
