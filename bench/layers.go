package main

// The traced pass: per-layer numbers from timed calls into each module's
// public functions, layer = module name. It calls only defaults and
// survivors of the consolidation planned in ROADMAP items 2–3, so those
// changes move these numbers without editing this file (deletion_test.go
// enforces it). Every stepping sample is a barrier-bracketed block of an
// even number of steps, so both AA storage parities are in it; bytes are
// computed from array sizes and the //lbm:traffic budgets, never measured.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/patch"
	"sunwaylb/internal/perf"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/swio"
	"sunwaylb/internal/trace"
)

// Steps per timed block of each stepping probe. All even: see evenBlock.
const (
	kernelBlockSteps   = 2  // core kernels on the common grid
	kernelBlockSteps40 = 20 // the cache-resident 40³ continuity case
	rankBlockSteps     = 2  // psolve New+Step
	superviseSteps     = 6  // whole Run / Supervise calls
	patchStepsLong     = 8  // two-point patch.Run, like the CLI
	patchStepsShort    = 2
	patchMigrateSteps  = 4
	cliProbeSteps      = 16 // CLI children of the traced pass
)

// Bytes one cell update moves in the paper's accounting (§III-B/§V-A)
// and the AA kernel's pinned //lbm:traffic budget.
const (
	bytesPerCellDB = perf.BytesPerLUP
	bytesPerCellAA = 360.0
)

// probe is one layer's share of the traced pass.
type probe struct {
	layer string
	run   func(b *bench, rec *runRecord, seed int64, seconds float64) error
}

var probes = []probe{
	{"perf", (*bench).probePerf},
	{"core", (*bench).probeCore},
	{"mpi", (*bench).probeMPI},
	{"psolve", (*bench).probePsolve},
	{"resil", (*bench).probeResil},
	{"swio", (*bench).probeSwio},
	{"patch", (*bench).probePatch},
	{"serve", (*bench).probeServe},
	{"cli", (*bench).probeCLI},
}

// tracedPass runs every probe once, recording the benchmark's own spans
// around the calls into each layer, and writes the spans out at the end.
// The pass is the same whatever workload it is labelled with: a layer is
// measured once, on the common case, not once per workload.
func (b *bench) tracedPass(workload string, seed int64, seconds float64) runRecord {
	rec := runRecord{Workload: workload, Seed: seed, Seconds: seconds, Trace: true, Metrics: map[string]value{}}
	b.tracer = trace.New(trace.Options{})
	b.spans = b.tracer.ForRank(0)
	for _, p := range probes {
		rec.Attempted++
		end := b.span(p.layer, "probe")
		t0 := time.Now()
		err := p.run(b, &rec, seed, seconds)
		end()
		fmt.Fprintf(os.Stderr, "traced pass: %s probe took %.1f s\n", p.layer, time.Since(t0).Seconds())
		if err != nil {
			rec.fail("%s probe: %v", p.layer, err)
		}
		// Give each layer a clean heap: the bandwidth arrays and the
		// lattices of one probe must not crowd the next.
		debug.FreeOSMemory()
	}
	if b.host.NumCPU < 2 {
		for name := range needsTwoCores {
			delete(rec.Metrics, name)
		}
		rec.note("nproc=%d: core.pool_speedup, cli.scaling_eff and psolve.scaling_eff_2x1 omitted — they compare one core against two", b.host.NumCPU)
	}
	for _, d := range perLayer {
		if _, ok := rec.Metrics[d.Name]; !ok && !(b.host.NumCPU < 2 && needsTwoCores[d.Name]) {
			rec.fail("metric %s was not produced", d.Name)
		}
	}
	path := filepath.Join(b.root, buildDirName, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := b.writeSpans(path); err != nil {
		rec.fail("writing spans: %v", err)
	} else {
		rec.note("benchmark spans written to %s (Chrome trace-event JSON)", path)
	}
	b.tracer, b.spans = nil, nil
	rec.Correct = rec.Failed == 0
	return rec
}

func (b *bench) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, b.tracer.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeOnce runs fn under a span and returns the seconds it took.
func (b *bench) timeOnce(layer, name string, fn func()) float64 {
	defer b.span(layer, name)()
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// timeBlocks calls fn once untimed (caches fill, lazy set-up finishes),
// then n more times under a span, and returns the seconds each took.
func (b *bench) timeBlocks(layer, name string, n int, fn func()) []float64 {
	fn()
	out := make([]float64, n)
	for i := range out {
		out[i] = b.timeOnce(layer, name, fn)
	}
	return out
}

// timeBetweenBarriers is timeOnce for a collective: every rank enters and
// leaves through a barrier, and rank 0 records the span.
func (b *bench) timeBetweenBarriers(c *mpi.Comm, layer, name string, fn func()) float64 {
	c.Barrier()
	end := func() {}
	if c.Rank() == 0 {
		end = b.span(layer, name)
	}
	t0 := time.Now()
	fn()
	c.Barrier()
	end()
	return time.Since(t0).Seconds()
}

// stepRate times n blocks of an even number of steps and returns the
// median seconds per step.
func (b *bench) stepRate(layer, name string, n, steps int, step func()) float64 {
	steps = evenBlock(steps)
	per := b.timeBlocks(layer, name, n, func() {
		for i := 0; i < steps; i++ {
			step()
		}
	})
	return median(per) / float64(steps)
}

// bothParities times fn on an AA lattice once at each storage parity —
// an untimed kernel step in between flips the phase — and returns the
// median over n pairs of the mean of the two calls.
func (b *bench) bothParities(layer, name string, n int, l *core.Lattice, fn func()) float64 {
	pair := func() float64 {
		var sum time.Duration
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			fn()
			sum += time.Since(t0)
			l.StepFused()
		}
		return sum.Seconds() / 2
	}
	pair()
	per := make([]float64, n)
	for i := range per {
		end := b.span(layer, name)
		per[i] = pair()
		end()
	}
	return median(per)
}

func mlupsOf(cells int, secPerStep float64) float64 { return float64(cells) / secPerStep / 1e6 }

// mallocs reads the process's cumulative allocation counters.
func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// ---- perf: the host's sustainable bandwidth ------------------------------

// probePerf measures STREAM-style triad and copy bandwidth on all cores
// and derives the roofline every kernel fraction is taken against. Each
// array is at least four times the LLC unless that would take more than a
// quarter of MemAvailable, in which case the cap is reported and the
// roofline fractions are computed-only.
func (b *bench) probePerf(rec *runRecord, _ int64, _ float64) error {
	llc := b.host.LLCBytes
	if llc == 0 {
		llc = 32 << 20
		rec.note("perf: LLC size not exposed by sysfs; assuming 32 MiB")
	}
	arrayBytes := 4 * llc
	if avail := memAvailable(); avail > 0 && 3*arrayBytes > avail/4 {
		arrayBytes = avail / 4 / 3
		rec.note("perf: bandwidth arrays capped at %d MiB each (¼ of MemAvailable in total), below 4× the %d MiB LLC: core.kernel_*_roofline_frac are computed-only",
			arrayBytes>>20, llc>>20)
	}
	n := int(arrayBytes / 8)
	x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
	workers := runtime.GOMAXPROCS(0)
	sweep := func(kernel func(lo, hi int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				kernel(lo, hi)
			}(w*n/workers, (w+1)*n/workers)
		}
		wg.Wait()
	}
	sweep(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i], z[i] = 1, 2
		}
	})
	best := func(name string, bytesPerElem float64, kernel func(lo, hi int)) float64 {
		secs := b.timeBlocks("perf", name, 3, func() { sweep(kernel) })
		return bytesPerElem * float64(n) / fastest(secs) / 1e9
	}
	triad := best("triad", 24, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] = y[i] + 3*z[i]
		}
	})
	cp := best("copy", 16, func(lo, hi int) { copy(x[lo:hi], z[lo:hi]) })
	rec.set(perLayer, "perf.triad_gbps", triad)
	rec.set(perLayer, "perf.copy_gbps", cp)
	rec.set(perLayer, "perf.llc_mib", float64(llc)/(1<<20))
	rec.set(perLayer, "perf.array_mib", float64(arrayBytes)/(1<<20))
	rec.set(perLayer, "perf.roofline_db_mlups", perf.RooflineLUPS(triad*1e9).MLUPS())
	rec.set(perLayer, "perf.roofline_aa_mlups", triad*1e9/bytesPerCellAA/1e6)
	rec.note("perf: triad on %d goroutine(s), 3 arrays of %d MiB against a %d MiB LLC; fastest of 3 sweeps",
		workers, arrayBytes>>20, llc>>20)
	return nil
}

// ---- core and boundary ----------------------------------------------------

// uniformLattice allocates a lattice at the channel's uniform state,
// halo included, so kernels can be stepped without boundary handling.
func uniformLattice(nx, ny, nz int, aa bool) (*core.Lattice, error) {
	l, err := core.NewLattice(&lattice.D3Q19, nx, ny, nz, channelTau)
	if err != nil {
		return nil, err
	}
	if aa {
		l.EnableAA()
	}
	l.InitEquilibrium(1, channelU, 0, 0)
	return l, nil
}

func residentMB(l *core.Lattice) float64 {
	return float64((len(l.F[0])+len(l.F[1]))*8+len(l.Flags)) / 1e6
}

func (b *bench) probeCore(rec *runRecord, _ int64, _ float64) error {
	var db, aa *core.Lattice
	var errDB, errAA error
	rec.set(perLayer, "core.alloc_s", b.timeOnce("core", "alloc_db", func() {
		db, errDB = uniformLattice(gridNX, gridNY, gridNZ, false)
	}))
	rec.set(perLayer, "core.alloc_aa_s", b.timeOnce("core", "alloc_aa", func() {
		aa, errAA = uniformLattice(gridNX, gridNY, gridNZ, true)
	}))
	if err := errors.Join(errDB, errAA); err != nil {
		return err
	}
	rec.set(perLayer, "core.resident_mb_db", residentMB(db))
	rec.set(perLayer, "core.resident_mb_aa", residentMB(aa))

	var bcs boundary.Set
	bcs.Add(channelConditions()...)

	// Double-buffer lattice: kernel alone, full wrap alone, the channel
	// conditions alone, then one CLI loop iteration (conditions + kernel).
	const blocks = 5 // timed blocks per probe, after one warm-up block
	kernelDB := b.stepRate("core", "kernel_db", blocks, kernelBlockSteps, db.StepFused)
	periodicDB := b.stepRate("core", "periodic_db", blocks, 2, db.PeriodicAll)
	applyDB := b.stepRate("boundary", "apply", blocks, 2, func() { bcs.Apply(db) })
	stepDB := b.stepRate("core", "step_db", blocks, kernelBlockSteps, func() { bcs.Apply(db); db.StepFused() })

	// AA lattice, one goroutine. PeriodicAll is timed once per parity: an
	// untimed kernel step between the two calls flips the storage phase.
	kernelAA := b.stepRate("core", "kernel_aa", blocks, kernelBlockSteps, aa.StepFused)
	periodicAA := b.bothParities("core", "periodic_aa", blocks, aa, aa.PeriodicAll)
	applyAA := b.bothParities("boundary", "apply_aa", blocks, aa, func() { bcs.Apply(aa) })
	stepAA := b.stepRate("core", "step_aa", blocks, kernelBlockSteps, func() { bcs.Apply(aa); aa.StepFused() })

	// AA lattice through the persistent pool on every core.
	pool := core.NewPool(aa, 0)
	m0, _ := mallocs()
	kernelPool := b.stepRate("core", "kernel_aa_pool", blocks, kernelBlockSteps, pool.Step)
	m1, _ := mallocs()
	pool.Close()
	rec.set(perLayer, "core.allocs_per_step", float64(m1-m0)/float64((blocks+1)*kernelBlockSteps))

	macro := b.timeBlocks("core", "macro", 3, func() { db.ComputeMacro() })

	rec.set(perLayer, "core.kernel_db_mlups", mlupsOf(gridCells, kernelDB))
	rec.set(perLayer, "core.kernel_aa_mlups", mlupsOf(gridCells, kernelAA))
	rec.set(perLayer, "core.kernel_aa_pool_mlups", mlupsOf(gridCells, kernelPool))
	rec.set(perLayer, "core.pool_speedup", kernelAA/kernelPool)
	rec.set(perLayer, "core.periodic_db_ms", periodicDB*1e3)
	rec.set(perLayer, "core.periodic_aa_ms", periodicAA*1e3)
	rec.set(perLayer, "core.step_db_mlups", mlupsOf(gridCells, stepDB))
	rec.set(perLayer, "core.step_aa_mlups", mlupsOf(gridCells, stepAA))
	rec.set(perLayer, "core.macro_ms", median(macro)*1e3)
	rec.set(perLayer, "boundary.apply_ms", applyDB*1e3)
	rec.set(perLayer, "boundary.share", applyDB/stepDB)
	rec.note("core: step_aa − kernel_aa = %.2f ms/step; channel Set.Apply on the AA lattice %.2f ms (on double-buffer %.2f ms); PeriodicAll AA %.2f ms",
		(stepAA-kernelAA)*1e3, applyAA*1e3, applyDB*1e3, periodicAA*1e3)

	// Achieved traffic and roofline fractions: computed bytes per cell
	// over the probe's triad bandwidth.
	gbpsDB := mlupsOf(gridCells, kernelDB) * bytesPerCellDB / 1e3
	gbpsAA := mlupsOf(gridCells, kernelAA) * bytesPerCellAA / 1e3
	rec.set(perLayer, "core.kernel_db_gbps", gbpsDB)
	rec.set(perLayer, "core.kernel_aa_gbps", gbpsAA)
	if triad, ok := rec.Metrics["perf.triad_gbps"]; ok {
		rec.set(perLayer, "core.kernel_db_roofline_frac", gbpsDB/triad.Value)
		rec.set(perLayer, "core.kernel_aa_roofline_frac", gbpsAA/triad.Value)
	}
	db, aa = nil, nil

	// The cache-resident 40³ cube BENCH_results.json has always reported.
	for _, c := range []struct {
		metric string
		aa     bool
	}{{"core.kernel_db_mlups_40", false}, {"core.kernel_aa_mlups_40", true}} {
		l, err := uniformLattice(40, 40, 40, c.aa)
		if err != nil {
			return err
		}
		rec.set(perLayer, c.metric, mlupsOf(40*40*40, b.stepRate("core", c.metric, blocks, kernelBlockSteps40, l.StepFused)))
	}

	// Halo faces of one rank's block of the 2x1 split.
	blk, err := uniformLattice(gridNX/2, gridNY, gridNZ, false)
	if err != nil {
		return err
	}
	buf := make([]float64, blk.Desc.Q*blk.FaceCells(core.FaceXMax))
	flags := make([]core.CellType, blk.FaceCells(core.FaceXMax))
	rec.set(perLayer, "core.pack_ms", median(b.timeBlocks("core", "pack", 9, func() { blk.PackFace(core.FaceXMax, buf, flags) }))*1e3)
	rec.set(perLayer, "core.unpack_ms", median(b.timeBlocks("core", "unpack", 9, func() { blk.UnpackFace(core.FaceXMin, buf, flags) }))*1e3)
	return nil
}

// ---- mpi ------------------------------------------------------------------

func (b *bench) probeMPI(rec *runRecord, _ int64, _ float64) error {
	const (
		pings    = 2000
		barriers = 2000
		halos    = 20
	)
	faceCells := (gridNY + 2) * (gridNZ + 2) // x face of a block, tangential halo included
	return mpi.Run(2, func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		lead := c.Rank() == 0
		timed := func(name string, n int, fn func()) float64 {
			return b.timeBetweenBarriers(c, "mpi", name, func() {
				for i := 0; i < n; i++ {
					fn()
				}
			}) / float64(n)
		}
		small := mpi.Message{Data: []float64{1}}
		ping := timed("pingpong", pings, func() {
			if lead {
				c.Send(peer, 1, small)
				c.Recv(peer, 2)
			} else {
				c.Recv(peer, 1)
				c.Send(peer, 2, small)
			}
		})
		bar := timed("barrier", barriers, c.Barrier)
		face := mpi.Message{Data: make([]float64, 19*faceCells), Aux: make([]byte, faceCells)}
		exchange := func() {
			send := c.Isend(peer, 3, face)
			recv := c.Irecv(peer, 3)
			recv.Wait()
			send.Wait()
		}
		exchange()
		c.Barrier()
		n0, b0 := mallocs()
		halo := timed("halo_roundtrip", halos, exchange)
		n1, b1 := mallocs()
		if lead {
			msgs := float64(2 * halos)
			rec.set(perLayer, "mpi.pingpong_us", ping*1e6)
			rec.set(perLayer, "mpi.barrier_us", bar*1e6)
			rec.set(perLayer, "mpi.halo_roundtrip_ms", halo*1e3)
			rec.set(perLayer, "mpi.allocs_per_msg", float64(n1-n0)/msgs)
			rec.set(perLayer, "mpi.alloc_bytes_per_msg", float64(b1-b0)/msgs)
		}
		return nil
	})
}

// ---- psolve ---------------------------------------------------------------

// channelRanks is the common case as the CLI hands it to psolve.
func channelRanks(px int, tr *trace.Tracer) psolve.Options {
	return psolve.Options{
		GNX: gridNX, GNY: gridNY, GNZ: gridNZ,
		PX: px, PY: 1,
		Tau:       channelTau,
		FaceBC:    channelFaceBC(),
		PeriodicY: true, PeriodicZ: true,
		Init:     channelInit,
		OnTheFly: true,
		Trace:    tr,
	}
}

// rankTimes is what rank 0 measured of one psolve world.
type rankTimes struct {
	setupSec, stepSec, gatherSec float64
	allocsPerStep, bytesPerStep  float64
	faceCells                    int
}

// timeRanks builds a px×1 world on the common case and times New, blocks
// of Step and GatherMacro, each between barriers.
func (b *bench) timeRanks(px, blocks int, tr *trace.Tracer) (rankTimes, error) {
	var out rankTimes
	w, err := mpi.NewWorld(px)
	if err != nil {
		return out, err
	}
	w.SetTracer(tr)
	opts := channelRanks(px, tr)
	name := fmt.Sprintf("%dx1", px)
	err = mpi.RunWorld(w, func(c *mpi.Comm) error {
		bracket := func(span string, fn func()) float64 {
			return b.timeBetweenBarriers(c, "psolve", span+"_"+name, fn)
		}
		var s *psolve.Solver
		var nerr error
		setup := bracket("new", func() { s, nerr = psolve.New(c, opts) })
		if nerr != nil {
			return nerr
		}
		steps := evenBlock(rankBlockSteps)
		block := func() {
			for i := 0; i < steps; i++ {
				s.Step()
			}
		}
		bracket("warm", block)
		n0, b0 := mallocs()
		per := make([]float64, blocks)
		for i := range per {
			per[i] = bracket("steps", block)
		}
		n1, b1 := mallocs()
		gather := bracket("gather", func() { s.GatherMacro(0) })
		if c.Rank() == 0 {
			timed := float64(blocks * steps)
			out = rankTimes{
				setupSec: setup, stepSec: median(per) / float64(steps), gatherSec: gather,
				allocsPerStep: float64(n1-n0) / timed, bytesPerStep: float64(b1-b0) / timed,
				faceCells: s.Lat.FaceCells(core.FaceXMin),
			}
		}
		return nil
	})
	return out, err
}

func (b *bench) probePsolve(rec *runRecord, _ int64, _ float64) error {
	one, err := b.timeRanks(1, 4, nil)
	if err != nil {
		return err
	}
	two, err := b.timeRanks(2, 5, nil)
	if err != nil {
		return err
	}
	rec.set(perLayer, "psolve.step_ms_1x1", one.stepSec*1e3)
	rec.set(perLayer, "psolve.step_ms_2x1", two.stepSec*1e3)
	rec.set(perLayer, "psolve.mlups_1x1", mlupsOf(gridCells, one.stepSec))
	rec.set(perLayer, "psolve.mlups_2x1", mlupsOf(gridCells, two.stepSec))
	rec.set(perLayer, "psolve.scaling_eff_2x1", one.stepSec/(2*two.stepSec))
	rec.set(perLayer, "psolve.setup_s", two.setupSec)
	rec.set(perLayer, "psolve.gather_ms", two.gatherSec*1e3)
	rec.set(perLayer, "psolve.allocs_per_step", two.allocsPerStep)
	rec.set(perLayer, "psolve.alloc_bytes_per_step", two.bytesPerStep)
	if stepDB, ok := rec.Metrics["core.step_db_mlups"]; ok {
		rec.set(perLayer, "psolve.tax_1x1", stepDB.Value/mlupsOf(gridCells, one.stepSec))
	}

	// Phase shares, imbalance and message counts come from the solver's
	// existing Options.Trace instrumentation through trace.Analyze.
	tr := trace.New(trace.Options{})
	blocks := 3
	traced, err := b.timeRanks(2, blocks, tr)
	if err != nil {
		return err
	}
	rep := trace.Analyze(tr.Events())
	total := map[string]float64{}
	for _, p := range rep.Phases {
		if p.Clock == trace.Wall {
			total[p.Track+"/"+p.Name] += p.Total
		}
	}
	stepTotal := total[trace.TrackStep+"/step"]
	if stepTotal == 0 {
		return fmt.Errorf("traced psolve run recorded no step spans")
	}
	share := func(names ...string) float64 {
		var t float64
		for _, n := range names {
			t += total[n]
		}
		return t / stepTotal
	}
	rec.set(perLayer, "psolve.share_compute", share(trace.TrackStep+"/compute-inner", trace.TrackStep+"/compute-boundary"))
	rec.set(perLayer, "psolve.share_halo", share(trace.TrackMPI+"/halo-x", trace.TrackMPI+"/halo-y"))
	rec.set(perLayer, "psolve.share_wait", share(trace.TrackMPI+"/halo-x-wait"))
	rec.set(perLayer, "psolve.share_bc", share(trace.TrackStep+"/bc"))
	rec.set(perLayer, "psolve.rank_imbalance", rep.Imbalance[trace.Wall])
	// The traced world ran warm-up + blocks of steps; the only traced
	// point-to-point sends in it are halo faces.
	tracedSteps := float64((blocks + 1) * evenBlock(rankBlockSteps))
	msgs := float64(rep.FlowsOut) / tracedSteps
	rec.set(perLayer, "psolve.msgs_per_step", msgs)
	rec.set(perLayer, "psolve.halo_bytes_per_step", msgs*float64(traced.faceCells*(19*8+1)))

	// Supervision with nothing to do: Supervise over Run, whole calls.
	opts := channelRanks(2, nil)
	var runSec, supSec []float64
	for i := 0; i < 2; i++ {
		runSec = append(runSec, b.timeOnce("psolve", "run", func() {
			_, err = psolve.Run(opts, superviseSteps)
		}))
		if err != nil {
			return err
		}
		supSec = append(supSec, b.timeOnce("psolve", "supervise", func() {
			_, _, err = psolve.Supervise(psolve.SupervisorOptions{Opts: opts, Steps: superviseSteps})
		}))
		if err != nil {
			return err
		}
	}
	rec.set(perLayer, "psolve.supervise_tax", median(supSec)/median(runSec)-1)

	if err := b.probeWaves(rec); err != nil {
		return err
	}
	return b.probeHotSwap(rec)
}

// probeWaves times snapshot waves directly: a 2-rank world on the common
// case calls the solver's ResilCapture collective between barriers.
func (b *bench) probeWaves(rec *runRecord) error {
	blocks, err := decomp.Decompose2D(gridNX, gridNY, gridNZ, 2, 1)
	if err != nil {
		return err
	}
	store, err := resil.NewStore(2, 2, blocks)
	if err != nil {
		return err
	}
	opts := channelRanks(2, nil)
	return mpi.Run(2, func(c *mpi.Comm) error {
		s, err := psolve.New(c, opts)
		if err != nil {
			return err
		}
		var werr error
		wave := func(name string, levels resil.Levels) float64 {
			return b.timeBetweenBarriers(c, "psolve", name, func() {
				if err := s.ResilCapture(store, levels); err != nil {
					werr = err
				}
			})
		}
		// The first wave of each kind sizes the buffers; the second is
		// the steady state a long run pays every SnapshotEvery steps.
		wave("wave_l1_warm", resil.L1)
		l1 := wave("wave_l1", resil.L1)
		wave("wave_l123_warm", resil.L1|resil.L2|resil.L3)
		before := store.Bytes()
		_, b0 := mallocs()
		l123 := wave("wave_l123", resil.L1|resil.L2|resil.L3)
		_, b1 := mallocs()
		after := store.Bytes()
		if c.Rank() == 0 {
			rec.set(perLayer, "psolve.wave_ms_l1", l1*1e3)
			rec.set(perLayer, "psolve.wave_ms_l123", l123*1e3)
			rec.set(perLayer, "resil.alloc_bytes_per_wave", float64(b1-b0))
			rec.set(perLayer, "resil.snapshot_bytes_l1", float64(after[0]-before[0]))
			rec.set(perLayer, "resil.snapshot_bytes_l2", float64(after[1]-before[1]))
			rec.set(perLayer, "resil.snapshot_bytes_l3", float64(after[2]-before[2]))
		}
		return werr
	})
}

// probeHotSwap loses rank 1 once and lets the supervisor hot-swap it from
// the in-memory hierarchy. Recovery time ranged 1.0–2.1 s in sizing runs,
// which is why it stays out of the end-to-end set.
func (b *bench) probeHotSwap(rec *runRecord) error {
	plan, err := fault.ParsePlan("seed=1;crash@rank=1,step=5")
	if err != nil {
		return err
	}
	defer b.span("psolve", "hotswap")()
	_, stats, err := psolve.Supervise(psolve.SupervisorOptions{
		Opts:          channelRanks(2, nil),
		Steps:         superviseSteps,
		MaxRestarts:   2,
		SnapshotEvery: 4,
		Levels:        resil.L1 | resil.L2 | resil.L3,
		GroupSize:     2,
		SpareRanks:    1,
		Injector:      fault.NewInjector(plan),
	})
	if err != nil {
		return err
	}
	if stats.HotSwaps != 1 {
		return fmt.Errorf("expected one hot swap, got %s", stats)
	}
	rec.set(perLayer, "psolve.mttr_ms", float64(stats.MTTR())/float64(time.Millisecond))
	rec.set(perLayer, "psolve.lost_steps", float64(stats.LostSteps))
	return nil
}

// ---- resil ----------------------------------------------------------------

// probeResil times the snapshot primitives on one rank's block of the
// 2x1 split, without any message passing.
func (b *bench) probeResil(rec *runRecord, _ int64, _ float64) error {
	lat, err := uniformLattice(gridNX/2, gridNY, gridNZ, false)
	if err != nil {
		return err
	}
	blk := decomp.Block{NX: gridNX / 2, NY: gridNY, NZ: gridNZ}
	var own, other, parity resil.Snapshot
	resil.Capture(&other, lat, blk, 1)
	capture := median(b.timeBlocks("resil", "capture", 5, func() { resil.Capture(&own, lat, blk, 0) }))
	par := median(b.timeBlocks("resil", "parity", 3, func() {
		resil.ParityReset(&parity, 0, own.Step, len(own.Pops), len(own.Flags))
		resil.ParityAdd(&parity, &own)
		resil.ParityAdd(&parity, &other)
		resil.Seal(&parity)
	}))
	var rerr error
	restore := median(b.timeBlocks("resil", "restore", 5, func() {
		if err := resil.RestoreInto(lat, &own); err != nil {
			rerr = err
		}
	}))
	if rerr != nil {
		return rerr
	}
	rec.set(perLayer, "resil.capture_ms", capture*1e3)
	rec.set(perLayer, "resil.capture_gbps", float64(own.PayloadBytes())/capture/1e9)
	rec.set(perLayer, "resil.parity_ms", par*1e3)
	rec.set(perLayer, "resil.restore_ms", restore*1e3)
	return nil
}

// ---- swio -----------------------------------------------------------------

func (b *bench) probeSwio(rec *runRecord, _ int64, _ float64) error {
	lat, err := uniformLattice(gridNX, gridNY, gridNZ, false)
	if err != nil {
		return err
	}
	path := filepath.Join(b.tmp, "probe.cpk")
	defer os.Remove(path)
	write := b.timeOnce("swio", "checkpoint", func() { err = swio.Checkpoint(path, lat) })
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	read := b.timeOnce("swio", "restart", func() { _, err = swio.Restart(path) })
	if err != nil {
		return err
	}
	rec.set(perLayer, "swio.checkpoint_s", write)
	rec.set(perLayer, "swio.checkpoint_mbps", float64(st.Size())/write/1e6)
	rec.set(perLayer, "swio.restart_s", read)
	rec.set(perLayer, "swio.checkpoint_bytes", float64(st.Size()))
	return nil
}

// ---- patch ----------------------------------------------------------------

// channelPatches is the common case as a 2×2×1 patch world on two core
// workers.
func channelPatches() patch.Options {
	return patch.Options{
		GNX: gridNX, GNY: gridNY, GNZ: gridNZ,
		TX: 2, TY: 2, TZ: 1,
		Tau:       channelTau,
		FaceBC:    channelFaceBC(),
		PeriodicY: true, PeriodicZ: true,
		Init:    channelInit,
		Workers: make([]patch.Worker, 2),
	}
}

func (b *bench) probePatch(rec *runRecord, _ int64, _ float64) error {
	timeRun := func(name string, opts patch.Options, steps int) (sec float64, stats *patch.Stats, err error) {
		sec = b.timeOnce("patch", name, func() { _, stats, err = patch.Run(opts, steps) })
		return sec, stats, err
	}
	long, _, err := timeRun("run_long", channelPatches(), patchStepsLong)
	if err != nil {
		return err
	}
	short, _, err := timeRun("run_short", channelPatches(), patchStepsShort)
	if err != nil {
		return err
	}
	slope, intercept := twoPoint(long, short, patchStepsLong, patchStepsShort)
	rec.set(perLayer, "patch.mlups_2w", mlupsOf(gridCells, slope))
	rec.set(perLayer, "patch.setup_s", intercept)
	if ranks, ok := rec.Metrics["psolve.mlups_2x1"]; ok {
		rec.set(perLayer, "patch.tax_vs_psolve", ranks.Value/mlupsOf(gridCells, slope))
	}

	// Forced rotation: every patch changes owner every second step; the
	// extra wall time over the two-point prediction is the migrations'.
	rotate := channelPatches()
	rotate.ForceMigrateEvery = 2
	forced, stats, err := timeRun("run_migrate", rotate, patchMigrateSteps)
	if err != nil {
		return err
	}
	if stats.Migrations == 0 {
		return fmt.Errorf("forced rotation migrated nothing")
	}
	rec.set(perLayer, "patch.migrate_ms", (forced-(intercept+slope*patchMigrateSteps))/float64(stats.Migrations)*1e3)

	// Balancer under a deterministic cost model: worker 1 is twice as
	// slow per cell, so the counts repeat exactly.
	skew := channelPatches()
	skew.RebalanceEvery = 2
	skew.CostModel = func(worker int, p patch.Patch) float64 { return float64(worker+1) * float64(p.Cells()) * 1e-8 }
	_, stats, err = timeRun("run_rebalance", skew, patchMigrateSteps)
	if err != nil {
		return err
	}
	rec.set(perLayer, "patch.migrations", float64(stats.Migrations))
	rec.set(perLayer, "patch.rebalances", float64(stats.Rebalances))
	rec.set(perLayer, "patch.imbalance_post", stats.ImbalancePost)
	return nil
}

// ---- serve ----------------------------------------------------------------

// probeServe runs a short serve-jobs session that also reads each job's
// public queued_sec/run_sec, and compares the service's run time with the
// same supervised job run in process.
func (b *bench) probeServe(rec *runRecord, seed int64, seconds float64) error {
	defer b.span("serve", "session")()
	small, large, list := jobList(seed)
	// A short session may not reach the first block's large job: bring
	// it forward so both size classes are sampled.
	for i, j := range list {
		if j.class == large {
			list[1].class, list[i].class = large, list[1].class
			break
		}
	}
	session := seconds / 4
	var sub runRecord
	run, err := b.serveJobs(&sub, small, large, list, session, 0, true)
	if err != nil {
		return err
	}
	if err := rec.absorb(&sub, "jobs"); err != nil {
		return err
	}
	done, smallDone, largeDone := run.done(nil), run.done(run.small), run.done(run.large)
	if len(smallDone) == 0 {
		return fmt.Errorf("no small job finished in %.1f s", session)
	}
	ms := func(os []jobOutcome, f func(jobOutcome) float64) float64 { return median(pick(os, f)) * 1e3 }
	rec.set(perLayer, "serve.post_ms_p50", ms(done, func(o jobOutcome) float64 { return o.postSec }))
	rec.set(perLayer, "serve.result_ms_p50", ms(done, func(o jobOutcome) float64 { return o.resultSec }))
	rec.set(perLayer, "serve.queued_ms_p50", ms(done, func(o jobOutcome) float64 { return o.queuedSec }))
	rec.set(perLayer, "serve.run_ms_p50_small", ms(smallDone, func(o jobOutcome) float64 { return o.runSec }))
	if len(largeDone) == 0 {
		return fmt.Errorf("no large job finished in %.1f s", session)
	}
	rec.set(perLayer, "serve.run_ms_p50_large", ms(largeDone, func(o jobOutcome) float64 { return o.runSec }))
	rec.set(perLayer, "serve.latency_p90_s", percentile(pick(smallDone, func(o jobOutcome) float64 { return o.latencySec }), 90))
	rec.set(perLayer, "serve.rejected", float64(run.rejected))
	rec.set(perLayer, "serve.journal_bytes_per_job", float64(run.journalBytes)/float64(len(run.outcomes)))
	rec.set(perLayer, "serve.drain_s", run.drainSec)
	rec.note("serve: %d jobs (%d small, %d large) in a %.1f s session; p90 over %d small-job latencies",
		len(done), len(smallDone), len(largeDone), session, len(smallDone))

	// The same small job under the same supervisor settings, in process:
	// what is left of run_sec is the service's own overhead.
	opts, err := serveSupervisor(run.small.spec("probe", "2x1"))
	if err != nil {
		return err
	}
	opts.CheckpointPath = filepath.Join(b.tmp, "probe-job.cpk")
	defer os.Remove(opts.CheckpointPath)
	inproc := median(b.timeBlocks("serve", "inprocess_supervise", 3, func() {
		if _, _, serr := psolve.Supervise(opts); serr != nil {
			err = serr
		}
	}))
	if err != nil {
		return err
	}
	rec.set(perLayer, "serve.overhead_frac", 1-inproc*1e3/rec.Metrics["serve.run_ms_p50_small"].Value)
	return nil
}

// ---- trace and cli ----------------------------------------------------------

// probeCLI runs short CLI children for the three numbers only the binary
// can give: what -trace costs a cli-ranks-2x1 run, and what the second
// core buys cli-single. One long/short pair each: per-layer numbers carry no
// bound, and the pass has to stay short.
func (b *bench) probeCLI(rec *runRecord, _ int64, _ float64) error {
	single, _ := findCLIWorkload("cli-single")
	ranks, _ := findCLIWorkload("cli-ranks-2x1")
	single.stepsLong, ranks.stepsLong = cliProbeSteps+1, cliProbeSteps+1 // odd, like every long run
	want, err := b.referenceHashes(single.stepsLong, stepsShort)
	if err != nil {
		return err
	}
	var sub runRecord
	rate := func(name string, w cliWorkload, args, env []string) float64 {
		defer b.span("cli", name)()
		s := b.cliPairs(&sub, w, want, args, env, func(int, time.Duration) bool { return false })
		mlups, _ := s.twoPointMLUPS(w.stepsLong)
		return mlups
	}
	plain := rate("ranks", ranks, nil, nil)
	traced := rate("ranks_traced", ranks, []string{"-trace", filepath.Join(b.tmp, "cli-trace.json")}, nil)
	p1 := rate("single_p1", single, nil, nil) // children run on one core by default
	all := rate("single", single, nil, []string{"GOMAXPROCS=" + strconv.Itoa(b.host.NumCPU)})
	if err := rec.absorb(&sub, "CLI children"); err != nil {
		return err
	}
	rec.set(perLayer, "trace.tax_frac", plain/traced-1)
	rec.set(perLayer, "cli.single_p1_mlups", p1)
	rec.set(perLayer, "cli.scaling_eff", all/(float64(b.host.NumCPU)*p1))
	return nil
}
