package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/vis"
)

// The common case: every CLI workload and most layer probes run this one
// grid, so the numbers form one ladder. 48×192×96 D3Q19 cells are 134 MB
// per population array — out of L2 and, double-buffered, larger than the
// LLC of the sizing host.
const (
	gridNX, gridNY, gridNZ = 48, 192, 96
	gridCells              = gridNX * gridNY * gridNZ

	channelTau = 0.7  // cmd/sunwaylb's channel preset
	channelU   = 0.05 // inlet and initial velocity of that preset

	// stepsShort is the second point of the two-point fit; it is even
	// while every stepsLong is odd, so the output check sees the final
	// state at both step parities.
	stepsShort = 2

	// oneCore pins every end-to-end child to one core. The sizing host is a
	// 2-vCPU guest whose vCPUs share one physical core for minutes at a
	// time (no CPU steal shown): a two-thread child then runs at one-thread
	// speed, a one-thread child is unaffected. One core is the operating
	// point that repeats; what the second core adds is reported, unbounded,
	// by cli.scaling_eff, core.pool_speedup and psolve.scaling_eff_2x1.
	oneCore = "GOMAXPROCS=1"

	childTimeout = 90 * time.Second
	// minPairs long/short pairs are run even when the first pair shows
	// they will not fit into --seconds.
	minPairs = 3
)

// cliWorkload is one way of running the common case through the
// sunwaylb binary.
type cliWorkload struct {
	name      string
	why       string
	stepsLong int
	extra     []string
}

var cliWorkloads = []cliWorkload{
	{
		name:      "cli-single",
		why:       "single-rank path of the CLI default and every example: core kernel + boundary do all the work, no messages or snapshots, so a kernel/BC/periodic change shows at full strength",
		stepsLong: 31,
	},
	{
		name:      "cli-ranks-2x1",
		why:       "same cells through psolve + mpi with on-the-fly exchange: its distance from cli-single is the rank-step tax, so a halo-layer change shows here and must not move cli-single",
		stepsLong: 31,
		extra:     []string{"-decomp", "2x1"},
	},
	{
		name:      "cli-resilient-2x1",
		why:       "lattice state is also written out (resil capture/buddy/parity waves every 10 steps, no fault): snapshot waves dominate, so a kernel gain bought by costlier capture shows here",
		stepsLong: 11,
		extra: []string{"-decomp", "2x1", "-snapshot-every", "10", "-ckpt-levels", "123",
			"-ckpt-group", "2", "-spare-ranks", "1", "-max-restarts", "2"},
	},
}

func findCLIWorkload(name string) (cliWorkload, bool) {
	for _, w := range cliWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return cliWorkload{}, false
}

func (w cliWorkload) args(steps int, outPrefix string) []string {
	a := []string{"-preset", "channel",
		"-nx", strconv.Itoa(gridNX), "-ny", strconv.Itoa(gridNY), "-nz", strconv.Itoa(gridNZ),
		"-steps", strconv.Itoa(steps), "-report", "1000", "-out", outPrefix}
	return append(a, w.extra...)
}

// dieWithParent has the kernel kill a child when the benchmark itself is
// killed (say, by a driver's timeout), so no process outlives the run.
var dieWithParent = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

// child is the outcome of one sunwaylb process.
type child struct {
	wallSec float64
	rssKB   int64
	hash    string // of the two -out PPM slices
	err     error
}

// runChild executes one sunwaylb invocation, timing exec → exit. A child
// that outlives childTimeout is killed and reported as an error.
func (b *bench) runChild(w cliWorkload, steps int, extraArgs, extraEnv []string) child {
	prefix := filepath.Join(b.tmp, fmt.Sprintf("%s-%d", w.name, steps))
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.bins.sunwaylb, append(w.args(steps, prefix), extraArgs...)...)
	cmd.Env = append(append(os.Environ(), oneCore), extraEnv...) // a later GOMAXPROCS wins
	cmd.SysProcAttr = dieWithParent
	var output bytes.Buffer
	cmd.Stdout, cmd.Stderr = &output, &output
	t0 := time.Now()
	err := cmd.Run()
	c := child{wallSec: time.Since(t0).Seconds()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			c.rssKB = ru.Maxrss
		}
	}
	switch {
	case ctx.Err() != nil:
		c.err = fmt.Errorf("killed after %v timeout", childTimeout)
	case err != nil:
		c.err = fmt.Errorf("%v: %s", err, tail(output.String(), 300))
	default:
		c.hash, c.err = hashSlices(prefix)
	}
	return c
}

// checkedChild is runChild plus the output check: the hash of the child's
// slices must equal the in-process reference for its step count.
func (b *bench) checkedChild(w cliWorkload, steps int, want map[int]string, extraArgs, extraEnv []string) child {
	c := b.runChild(w, steps, extraArgs, extraEnv)
	if c.err == nil && c.hash != want[steps] {
		c.err = fmt.Errorf("output hash %.12s differs from the in-process reference %.12s", c.hash, want[steps])
	}
	return c
}

// hashSlices digests the two PPM images `sunwaylb -out prefix` writes and
// removes them.
func hashSlices(prefix string) (string, error) {
	h := sha256.New()
	for _, suffix := range []string{"_speed_z.ppm", "_speed_y.ppm"} {
		raw, err := os.ReadFile(prefix + suffix)
		if err != nil {
			return "", fmt.Errorf("missing output: %w", err)
		}
		h.Write(raw)
		os.Remove(prefix + suffix)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func tail(s string, n int) string {
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// cliSamples are the successful children of a series of long/short pairs.
type cliSamples struct {
	long, short []float64 // wall seconds
	rssKB       []float64 // of the long runs
}

// twoPointMLUPS reduces the samples to the black-box throughput — it needs
// no stdout parsing and includes BCs, periodic wrap, exchange and snapshot
// waves — and the fixed cost the fit leaves over.
//
// The fit goes through the fastest long and the fastest short child, not
// the median ones. On a shared host other tenants only ever add time to a
// child; on the sizing host the fastest child of a run repeated within 2 %
// between two sets of ten runs taken an hour apart while the median child
// moved 14 % (README, "Fastest child").
func (s cliSamples) twoPointMLUPS(stepsLong int) (mlups, interceptSec float64) {
	slope, intercept := twoPoint(fastest(s.long), fastest(s.short), stepsLong, stepsShort)
	return gridCells / slope / 1e6, intercept
}

// cliPairs runs long/short pairs of the workload until more reports
// done, checking every child's output hash against the reference for its
// step count. Failed children are counted and named in rec, and leave no
// sample.
func (b *bench) cliPairs(rec *runRecord, w cliWorkload, want map[int]string,
	extraArgs, extraEnv []string, more func(pairs int, lastPair time.Duration) bool) cliSamples {
	var s cliSamples
	for pairs := 0; ; pairs++ {
		t0 := time.Now()
		for _, steps := range []int{w.stepsLong, stepsShort} {
			rec.Attempted++
			c := b.checkedChild(w, steps, want, extraArgs, extraEnv)
			if c.err != nil {
				rec.fail("%s -steps %d: %v", w.name, steps, c.err)
				continue
			}
			if steps == stepsShort {
				s.short = append(s.short, c.wallSec)
			} else {
				s.long = append(s.long, c.wallSec)
				s.rssKB = append(s.rssKB, float64(c.rssKB))
			}
		}
		if !more(pairs+1, time.Since(t0)) {
			return s
		}
	}
}

// runCLIWorkload is one end-to-end run of a CLI workload: pairs of
// `-steps S` and `-steps 2` children for the given number of seconds.
// The CLI workloads have no random inputs — the case is fixed so that the
// three form one ladder — so the seed only labels the run.
func (b *bench) runCLIWorkload(w cliWorkload, seconds float64) (runRecord, error) {
	rec := runRecord{Workload: w.name, Seconds: seconds, Metrics: map[string]value{}}
	want, err := b.referenceHashes(w.stepsLong, stepsShort)
	if err != nil {
		return rec, err
	}
	start := time.Now()
	s := b.cliPairs(&rec, w, want, nil, nil, func(pairs int, lastPair time.Duration) bool {
		// Another pair is started while it would end no more than half a
		// pair past the time.
		return pairs < minPairs || time.Since(start)+lastPair/2 <= time.Duration(seconds*float64(time.Second))
	})
	if len(s.long) == 0 || len(s.short) == 0 {
		return rec, errors.New("no successful child to measure")
	}
	mlups, intercept := s.twoPointMLUPS(w.stepsLong)
	rec.set(endToEnd, "mlups", mlups)
	// The short child is the set-up a user pays: process start, allocation,
	// init, rank spin-up, gather, image write, exit — and two steps. The
	// fit's intercept is only noted: with snapshot waves the slope is not
	// a pure per-step cost and the intercept falls below a process start.
	rec.set(endToEnd, "setup_s", fastest(s.short))
	rec.set(endToEnd, "job_latency_s", fastest(s.long))
	rec.set(endToEnd, "rss_mb", median(s.rssKB)*1024/1e6)
	rec.note("%d long (-steps %d) and %d short (-steps %d) children; two-point intercept %.3f s; long walls %.3f s (median %.3f), short walls %.3f s (median %.3f)",
		len(s.long), w.stepsLong, len(s.short), stepsShort, intercept, s.long, median(s.long), s.short, median(s.short))
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// channelLattice builds the common case in process, the way cmd/sunwaylb
// builds its channel preset: uniform inlet velocity everywhere, velocity
// inlet at x−, pressure outlet at x+, periodic y and z.
func channelLattice(nx, ny, nz int) (*core.Lattice, *boundary.Set, error) {
	l, err := core.NewLattice(&lattice.D3Q19, nx, ny, nz, channelTau)
	if err != nil {
		return nil, nil, err
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			for z := 0; z < nz; z++ {
				l.SetCell(x, y, z, 1, channelU, 0, 0)
			}
		}
	}
	var bcs boundary.Set
	bcs.Add(channelConditions()...)
	return l, &bcs, nil
}

func channelConditions() []boundary.Condition {
	return []boundary.Condition{
		&boundary.Periodic{Axis: 1}, &boundary.Periodic{Axis: 2},
		&boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{channelU, 0, 0}},
		&boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
	}
}

// channelFaceBC is the same pair of conditions keyed by face, as the
// distributed and patch solvers take them.
func channelFaceBC() map[core.Face]boundary.Condition {
	return map[core.Face]boundary.Condition{
		core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{channelU, 0, 0}},
		core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
	}
}

func channelInit(x, y, z int) (rho, ux, uy, uz float64) { return 1, channelU, 0, 0 }

// referenceHash steps the common case in process — plain core calls, no
// ranks, no supervisor — and digests the same two slices the CLI writes.
// Every CLI workload must reproduce it bit for bit, which is also what
// makes the three agree with each other.
//
// The channel flow stays uniform, so the slices hold round-off-level
// structure only: the check sees any change in arithmetic, not data put
// in the wrong place. The sheared boxes of serve-jobs cover that.
func referenceHash(steps int) (string, error) {
	l, bcs, err := channelLattice(gridNX, gridNY, gridNZ)
	if err != nil {
		return "", err
	}
	pool := core.NewPool(l, 0)
	defer pool.Close()
	for i := 0; i < steps; i++ {
		bcs.Apply(l)
		pool.Step()
	}
	m := l.ComputeMacro()
	h := sha256.New()
	for _, s := range []*vis.Slice{vis.SpeedSlice(m, vis.AxisZ, m.NZ/2), vis.SpeedSlice(m, vis.AxisY, m.NY/2)} {
		if err := vis.WritePPM(h, s, 0, 0); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// referenceHashes returns the reference hash per step count. They depend
// only on the sources, so they are computed once per build and kept in
// the build directory; ensureBinaries drops the file when it rebuilds.
func (b *bench) referenceHashes(steps ...int) (map[int]string, error) {
	path := filepath.Join(b.root, buildDirName, referenceFile)
	cached := map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &cached); err != nil {
			cached = map[string]string{}
		}
	}
	out := make(map[int]string, len(steps))
	dirty := false
	for _, n := range steps {
		key := strconv.Itoa(n)
		if cached[key] == "" {
			h, err := referenceHash(n)
			if err != nil {
				return nil, fmt.Errorf("in-process reference at %d steps: %w", n, err)
			}
			cached[key], dirty = h, true
		}
		out[n] = cached[key]
	}
	if dirty {
		raw, err := json.Marshal(cached)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return nil, err
		}
	}
	return out, nil
}
