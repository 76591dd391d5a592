package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sunwaylb/internal/swio"
)

// buildCLI compiles the command once per test binary.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sunwaylb")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building CLI: %v\n%s", err, out)
	}
	return bin
}

func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	cp := filepath.Join(dir, "state.cpk")

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Local run with checkpoint.
	out := run("-preset", "cavity", "-nx", "12", "-ny", "12", "-nz", "12",
		"-steps", "20", "-checkpoint", cp)
	if !strings.Contains(out, "completed") {
		t.Errorf("no completion line:\n%s", out)
	}
	if _, err := os.Stat(cp); err != nil {
		t.Fatalf("checkpoint missing: %v", err)
	}

	// Restore and continue.
	out = run("-preset", "cavity", "-nx", "12", "-ny", "12", "-nz", "12",
		"-steps", "30", "-restore", cp)
	if !strings.Contains(out, "restored") {
		t.Errorf("no restore line:\n%s", out)
	}

	// Distributed run with images.
	prefix := filepath.Join(dir, "chan")
	out = run("-preset", "channel", "-nx", "24", "-ny", "8", "-nz", "8",
		"-steps", "10", "-decomp", "2x1", "-out", prefix)
	if !strings.Contains(out, "aggregate") {
		t.Errorf("no distributed summary:\n%s", out)
	}
	if _, err := os.Stat(prefix + "_speed_z.ppm"); err != nil {
		t.Errorf("missing image: %v", err)
	}

	// Supervised chaos run: a fault plan kills rank 1 mid-run; the
	// supervisor restores from the periodic checkpoint and finishes.
	chaosCp := filepath.Join(dir, "chaos.cpk")
	out = run("-preset", "channel", "-nx", "24", "-ny", "8", "-nz", "8",
		"-steps", "20", "-decomp", "2x1",
		"-checkpoint", chaosCp, "-checkpoint-every", "5", "-max-restarts", "2",
		"-fault-plan", "seed=7;crash@rank=1,step=12")
	if !strings.Contains(out, "completed") {
		t.Errorf("chaos run did not complete:\n%s", out)
	}
	if !strings.Contains(out, "restarts=1") {
		t.Errorf("chaos run reported no recovery:\n%s", out)
	}
	if !strings.Contains(out, "crashes=1") {
		t.Errorf("chaos run reported no injected crash:\n%s", out)
	}
	if _, err := os.Stat(chaosCp); err != nil {
		t.Errorf("supervised checkpoint missing: %v", err)
	}

	// Distributed restore resumes from the supervised checkpoint.
	out = run("-preset", "channel", "-nx", "24", "-ny", "8", "-nz", "8",
		"-steps", "25", "-decomp", "2x1", "-restore", chaosCp)
	if !strings.Contains(out, "restored") {
		t.Errorf("distributed restore did not resume:\n%s", out)
	}

	// Patch decomposition over a heterogeneous roster with rebalancing.
	out = run("-preset", "cavity", "-nx", "16", "-ny", "16", "-nz", "12",
		"-steps", "10", "-decomp", "patch", "-patch-tiles", "2x2x1",
		"-patch-workers", "core,core*5,sunway", "-rebalance-every", "3")
	if !strings.Contains(out, "patches: 4 over 3 workers") {
		t.Errorf("no patch summary:\n%s", out)
	}

	// Supervised patch run: kill a worker mid-run; its patches migrate to
	// the survivors from the in-memory snapshot wave.
	out = run("-preset", "cavity", "-nx", "16", "-ny", "16", "-nz", "12",
		"-steps", "12", "-decomp", "patch", "-patch-tiles", "2x2x1",
		"-patch-workers", "core,core,core", "-snapshot-every", "2",
		"-ckpt-levels", "123", "-max-restarts", "2",
		"-fault-plan", "seed=3;crash@rank=1,step=6")
	if !strings.Contains(out, "completed") {
		t.Errorf("patch chaos run did not complete:\n%s", out)
	}
	if !strings.Contains(out, "crashes=1") {
		t.Errorf("patch chaos run reported no injected crash:\n%s", out)
	}
	if !strings.Contains(out, "hot-swaps=1, disk=0") || !strings.Contains(out, "snapshots: ") {
		t.Errorf("patch chaos run did not recover from memory, or printed no recovery/snapshot lines:\n%s", out)
	}

	// Bad flags fail cleanly.
	if _, err := exec.Command(bin, "-preset", "nope").CombinedOutput(); err == nil {
		t.Error("unknown preset must exit non-zero")
	}
	if _, err := exec.Command(bin, "-preset", "cavity", "-decomp", "9z9").CombinedOutput(); err == nil {
		t.Error("malformed -decomp must exit non-zero")
	}
	if _, err := exec.Command(bin, "-preset", "cavity", "-decomp", "2x1",
		"-fault-plan", "bogus@x=1").CombinedOutput(); err == nil {
		t.Error("malformed -fault-plan must exit non-zero")
	}
	if _, err := exec.Command(bin, "-preset", "cavity", "-decomp", "patch",
		"-patch-workers", "quantum").CombinedOutput(); err == nil {
		t.Error("unknown -patch-workers backend must exit non-zero")
	}
	if _, err := exec.Command(bin, "-preset", "cavity", "-decomp", "patch",
		"-patch-tiles", "2x2").CombinedOutput(); err == nil {
		t.Error("malformed -patch-tiles must exit non-zero")
	}
}

// TestCLIKernelPath is the "no silent slow path" oracle: on every path
// the channel preset must report the in-place AA kernel through the D3Q19
// fast path (the row kernel is whichever the host supports) — on a
// one-worker pool, on ranks (with snapshot waves too) and on patches, and
// where a modelled device prices the steps — so a dispatch regression
// fails here instead of showing up as a quiet slowdown. A priced run names
// its devices, the whole roster's on patches, and the slowest priced rank
// or worker's modelled time per step. The obstacle-free channel's rows all take the
// unrolled kernel, so its line ends at the pool; the cylinder's rows by the
// obstacle step the generic sweep, and the line says how many. A
// single-rank run then says what building the lattice and writing its
// output cost, and, where /proc/self/smaps_rollup reads, how much memory
// the build left on huge pages.
func TestCLIKernelPath(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	const aa = `path: aa (avx512|scalar) d3q19 `
	const split = `kernel [0-9.]+ ms/step, boundary [0-9.]+ ms/step, `
	setup := `setup: build [0-9.]+ ms, output [0-9.]+ ms\n`
	if _, ok := hugePagesMB(); ok {
		setup = `setup: build [0-9.]+ ms \(huge pages [0-9]+ MB\), output [0-9.]+ ms\n`
	}
	channel := []string{"-preset", "channel", "-nx", "16", "-ny", "12", "-nz", "8", "-steps", "4"}
	const modelled = `  modelled [0-9.]+ ms/step \(slowest: rank `
	for _, tc := range []struct {
		args []string
		want string
	}{
		{channel, split + aa + `pool×1\n` + setup},
		{append(channel, "-decomp", "2x1"), split + aa + `ranks×2\n`},
		{append(channel, "-decomp", "2x1", "-snapshot-every", "2", "-ckpt-levels", "123"), split + aa + `ranks×2\n`},
		{append(channel, "-decomp", "patch"), aa + `patches×4 on 2 workers\n`},
		{append(channel, "-decomp", "2x1", "-sunway"), split + aa + `ranks×2, priced on swlb sw26010\n` + modelled + `[01], swlb sw26010\)\n`},
		{append(channel, "-sunway"), split + aa + `pool×1, priced on swlb sw26010\n` + modelled + `0, swlb sw26010\)\n` + setup},
		{append(channel, "-decomp", "patch", "-patch-workers", "core,sunway,gpu"),
			aa + `patches×4 on 3 workers, priced on sunway,gpu\npatches: [^\n]*\n` + modelled + `(1, sunway|2, gpu)\)\n`},
		{[]string{"-preset", "cylinder", "-nx", "64", "-ny", "48", "-steps", "4"}, aa + `pool×1, [0-9.]*[1-9][0-9.]*% of rows generic\n` + setup},
	} {
		cmd := exec.Command(bin, tc.args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		if !regexp.MustCompile(tc.want).Match(out) {
			t.Errorf("%v: summary does not name the expected kernel path %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestPhaseSplitNonNegative: the path line's kernel and boundary figures
// come from one rank, so neither is negative and they sum to that rank's
// mean step — also when the rank's condition time outruns its step time
// (a step cut short by a crash), which once printed a negative kernel.
func TestPhaseSplitNonNegative(t *testing.T) {
	for _, tc := range []struct {
		meanMs float64
		bc     time.Duration
		steps  int
	}{
		{10, 30 * time.Millisecond, 10},
		{10, 150 * time.Millisecond, 10},
		{0.8, 4 * time.Millisecond, 4},
		{0, 0, 0},
		{2, time.Millisecond, 0},
	} {
		k, bc := phaseSplit(tc.meanMs, tc.bc, tc.steps)
		if k < 0 || bc < 0 || k+bc != tc.meanMs {
			t.Errorf("phaseSplit(%v, %v, %d) = kernel %v, boundary %v: want both ≥ 0, summing to %v",
				tc.meanMs, tc.bc, tc.steps, k, bc, tc.meanMs)
		}
	}
}

// TestCLIPathsAgree: the same case writes the same bytes on every path.
// Each preset, and a bare -case file (a periodic box with an LES
// constant), stopped at an odd and at an even step, must produce
// byte-identical PPM sets on one rank, on a 2×2 rank grid, on 2×2 ranks
// priced on simulated Sunway core groups, on the patch world and on a
// patch roster with sunway and gpu workers, and every path must name the
// same collision kernel. The one-rank run steps a two-worker pool whatever
// the host, so the conditions its pool runs inside the sweep also go
// through a band edge. (Cropped to 24 cells in x, urban's buildings are
// cut by the x-max face, so its PressureOutlet extrapolates from solid
// cells — whose populations differ between storage schemes; one storage
// on every path, priced ones included, is what makes this hold.)
func TestCLIPathsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	box := filepath.Join(dir, "box.json")
	if err := os.WriteFile(box, []byte(`{"name":"les box","nx":16,"ny":12,"nz":8,"tau":0.51,"smagorinsky":0.17,"steps":6}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{{"-case", box}}
	for _, preset := range []string{"cavity", "channel", "cylinder", "urban", "suboff"} {
		cases = append(cases, []string{"-preset", preset})
	}
	paths := []struct {
		name string
		args []string
		env  []string
	}{
		{"single", nil, []string{"GOMAXPROCS=2"}},
		{"2x2", []string{"-decomp", "2x2"}, nil},
		{"2x2-sunway", []string{"-decomp", "2x2", "-sunway"}, nil},
		{"patch", []string{"-decomp", "patch"}, nil},
		{"patch-priced", []string{"-decomp", "patch", "-patch-workers", "core,sunway,gpu"}, nil},
	}
	kernel := regexp.MustCompile(`path: (\S+ \S+ \S+)`)
	for ci, c := range cases {
		for _, steps := range []string{"7", "8"} {
			var want [2][]byte
			var wantPath string
			for i, p := range paths {
				prefix := filepath.Join(dir, fmt.Sprint(ci, steps, p.name))
				args := append([]string{"-nx", "24", "-ny", "20", "-nz", "12",
					"-steps", steps, "-out", prefix}, c...)
				args = append(args, p.args...)
				cmd := exec.Command(bin, args...)
				cmd.Env = append(os.Environ(), p.env...)
				out, err := cmd.CombinedOutput()
				if err != nil {
					t.Fatalf("%v: %v\n%s", args, err, out)
				}
				path := kernel.FindSubmatch(out)
				if path == nil {
					t.Fatalf("%v: no path line:\n%s", args, out)
				}
				if i == 0 {
					wantPath = string(path[1])
				} else if string(path[1]) != wantPath {
					t.Errorf("%v, %s steps: %s runs %q, the single-rank run %q", c, steps, p.name, path[1], wantPath)
				}
				for j, suffix := range []string{"_speed_z.ppm", "_speed_y.ppm"} {
					got, err := os.ReadFile(prefix + suffix)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						want[j] = got
					} else if !bytes.Equal(got, want[j]) {
						t.Errorf("%v, %s steps: %s%s differs from the single-rank run", c, steps, p.name, suffix)
					}
				}
			}
		}
	}
}

// TestCLISnapshotLine pins the snapshot accounting a supervised run
// prints after its "completed" line: 7 steps with a wave every 2 is three
// waves (never one at the final step), and the store's residency split by
// level. A 2-rank L1+L2+L3 store holds own and buddy records of both
// generations (8 × 118 KB) and no parity: each rank keeps both members of
// its pair. In a group of three each replica folds the one member its
// rank keeps neither as own record nor as buddy copy; the received
// parity messages leave their transport buffers with the store. Where
// /proc/self/smaps_rollup reads, the line ends with how much of the
// process sits on huge pages after the run.
func TestCLISnapshotLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	backing := ""
	if _, ok := hugePagesMB(); ok {
		backing = `, huge pages [0-9]+ MB`
	}
	for _, tc := range []struct{ decomp, group, resident string }{
		{"2x1", "2", `1 MB resident in store \(L1 0\.5, L2 0\.5, L3 0\.0 MB\)`},
		{"3x1", "3", `2 MB resident in store \(L1 0\.5, L2 0\.5, L3 0\.5 MB\)`},
	} {
		out, err := exec.Command(bin, "-preset", "channel", "-nx", "16", "-ny", "12", "-nz", "8",
			"-steps", "7", "-decomp", tc.decomp, "-snapshot-every", "2", "-ckpt-levels", "123", "-ckpt-group", tc.group).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !regexp.MustCompile(`completed 7 steps in .*\nsnapshots: 3 waves, first [0-9.]+ ms, [0-9.]+ ms/wave, [0-9.]+ GB/s, ` + tc.resident + backing + `\n`).Match(out) {
			t.Errorf("%s, groups of %s: summary lacks the expected snapshot line:\n%s", tc.decomp, tc.group, out)
		}
	}
}

// TestCLIMemoryLevelsNeedWaves: in-memory checkpoint levels without a
// wave cadence would fill nothing, so every world refuses them before
// the run; disk-only levels need no cadence.
func TestCLIMemoryLevelsNeedWaves(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	base := []string{"-preset", "channel", "-nx", "16", "-ny", "16", "-nz", "16", "-steps", "2"}
	for _, world := range [][]string{nil, {"-decomp", "2x1"}, {"-decomp", "patch"}} {
		for _, levels := range []string{"1", "123", "34"} {
			out, err := exec.Command(bin, append(append(base, world...), "-ckpt-levels", levels)...).CombinedOutput()
			if err == nil || !strings.Contains(string(out), errNoWaves.Error()) {
				t.Errorf("%v -ckpt-levels %s without -snapshot-every: want %q, got %v:\n%s", world, levels, errNoWaves, err, out)
			}
		}
	}
	if out, err := exec.Command(bin, append(base, "-decomp", "2x1", "-ckpt-levels", "4")...).CombinedOutput(); err != nil {
		t.Errorf("-ckpt-levels 4 needs no waves, got %v:\n%s", err, out)
	}
}

// TestCLIOneRankDivergedFails: a 12³ cavity at τ 0.50001 goes non-finite
// within 400 steps. On one rank, which keeps its lattice instead of
// gathering a field, the run must still fail: a non-zero exit whose
// message says the run diverged, never "completed" over a NaN field.
func TestCLIOneRankDivergedFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	cf := filepath.Join(t.TempDir(), "diverging.json")
	if err := os.WriteFile(cf, []byte(`{"name":"diverging cavity","nx":12,"ny":12,"nz":12,"tau":0.50001,"steps":1000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-preset", "cavity", "-case", cf).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "run diverged") || strings.Contains(string(out), "completed") {
		t.Fatalf("a diverging one-rank run must exit non-zero with \"run diverged\", got %v:\n%s", err, out)
	}
}

// stepBudget is a context that reports cancellation from its n-th Err
// poll on. The recovery ladder polls once per step, so the interrupt
// lands on a chosen step boundary.
type stepBudget struct {
	context.Context
	polls int
}

func (c *stepBudget) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestLocalRestoreRejoinsAtOddSteps: a single-rank run stopped at an odd
// step — by running out of steps or by the interrupt checkpoint after a
// periodic one — and resumed with -restore must end in exactly the state
// of the uninterrupted run: same images, same final checkpoint, byte for
// byte. (The AA storage is in its shifted layout at odd steps; the
// checkpoint must hold the logical populations regardless.)
func TestLocalRestoreRejoinsAtOddSteps(t *testing.T) {
	dir := t.TempDir()
	run := func(ctx context.Context, name string, steps, every int, restore string) error {
		cs, err := builtinPreset("cylinder")
		if err != nil {
			t.Fatal(err)
		}
		cs.cfg.Steps = steps
		if err := cs.cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		o := runOpts{out: p, cpPath: p + ".cpk", cpEvery: every, restore: restore, reportSecs: 1e9}
		w, err := newWorld(cs, o)
		if err != nil {
			t.Fatal(err)
		}
		return run(ctx, w, o)
	}
	same := func(a, b string) {
		t.Helper()
		for _, suffix := range []string{"_speed_z.ppm", "_speed_y.ppm", ".cpk"} {
			x, err := os.ReadFile(filepath.Join(dir, a+suffix))
			if err != nil {
				t.Fatal(err)
			}
			y, err := os.ReadFile(filepath.Join(dir, b+suffix))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(x, y) {
				t.Errorf("%s%s differs from %s%s", b, suffix, a, suffix)
			}
		}
	}
	bg := context.Background()
	if err := run(bg, "whole", 7, 0, ""); err != nil {
		t.Fatal(err)
	}

	// -steps 3 -checkpoint-every 3, then -restore up to step 7.
	if err := run(bg, "three", 3, 3, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(bg, "resumed", 7, 0, filepath.Join(dir, "three.cpk")); err != nil {
		t.Fatal(err)
	}
	same("whole", "resumed")

	// -steps 7 -checkpoint-every 3, interrupted on the boundary after
	// step 5: the interrupt checkpoint replaces the periodic one of step 3.
	err := run(&stepBudget{Context: bg, polls: 5}, "cut", 7, 3, "")
	if !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupted run returned %v, want errInterrupted", err)
	}
	cut, err := swio.Restart(filepath.Join(dir, "cut.cpk"))
	if err != nil {
		t.Fatal(err)
	}
	if cut.Step() != 5 {
		t.Errorf("interrupt checkpoint holds step %d, want the step the run stopped at, 5", cut.Step())
	}
	if err := run(bg, "rejoined", 7, 0, filepath.Join(dir, "cut.cpk")); err != nil {
		t.Fatal(err)
	}
	same("whole", "rejoined")
}

// TestCLIFaultPlanInWorld: a fault plan that names a rank the world does
// not have is refused before the run starts, on every world — the rule
// lbmserve applies at admission — instead of running to a clean finish
// with crashes=0.
func TestCLIFaultPlanInWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	channel := []string{"-preset", "channel", "-nx", "16", "-ny", "12", "-nz", "8", "-steps", "6"}
	for _, args := range [][]string{
		append(channel, "-fault-plan", "seed=1;crash@rank=1,step=3"),
		append(channel, "-decomp", "2x1", "-fault-plan", "seed=1;crash@rank=5,step=3"),
		append(channel, "-decomp", "patch", "-patch-workers", "core,core", "-fault-plan", "seed=1;crash@rank=7,step=3"),
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "outside world") {
			t.Errorf("%v: want a refused plan, got %v:\n%s", args, err, out)
		}
	}
}

// TestCLIOneRankRecoveryNote: a one-rank run that asks for spare ranks
// and the buddy and parity levels is told at start that none of them can
// recover it — a singleton parity group holds no copy — and it still runs
// as before, a crash resuming from step 0. A 2×1 world gets no note.
func TestCLIOneRankRecoveryNote(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	args := []string{"-preset", "cavity", "-nx", "12", "-ny", "12", "-nz", "12", "-steps", "6",
		"-snapshot-every", "2", "-ckpt-levels", "123", "-spare-ranks", "1",
		"-fault-plan", "seed=1;crash@rank=0,step=3", "-max-restarts", "1"}
	const note = "note: one rank has no buddy and no parity partner"
	for _, tc := range []struct {
		world    []string
		notes    int
		recovery string
	}{
		{nil, 1, "resuming from step 0 (lost 3 steps)"},
		{[]string{"-decomp", "2x1"}, 0, "hot-swaps=1, disk=0"},
	} {
		out, err := exec.Command(bin, append(args, tc.world...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.world, err, out)
		}
		if got := strings.Count(string(out), note); got != tc.notes {
			t.Errorf("%v: %d notes, want %d:\n%s", tc.world, got, tc.notes, out)
		}
		if !strings.Contains(string(out), tc.recovery) {
			t.Errorf("%v: recovery changed, want %q:\n%s", tc.world, tc.recovery, out)
		}
	}
}

// TestCLIRestoreChecksDims: a checkpoint of another grid is refused on
// every world, the single rank included.
func TestCLIRestoreChecksDims(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	cp := filepath.Join(t.TempDir(), "cavity.cpk")
	if out, err := exec.Command(bin, "-preset", "cavity", "-nx", "12", "-ny", "12", "-nz", "12",
		"-steps", "3", "-checkpoint", cp).CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, world := range [][]string{nil, {"-decomp", "2x1"}, {"-decomp", "patch"}} {
		args := append([]string{"-preset", "channel", "-nx", "16", "-ny", "12", "-nz", "8",
			"-steps", "6", "-restore", cp}, world...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "restore lattice 12×12×12 does not match case 16×12×8") {
			t.Errorf("%v: want the restore refused, got %v:\n%s", world, err, out)
		}
	}
}

// TestCLICheckpointsPortable is the portability oracle of the checkpoint
// format: a checkpoint written at an odd and at an even step by the
// single rank, by a 2×2 rank grid and by the patch world, resumed with
// -restore on each of the other two, ends with the images of the
// uninterrupted single-rank run, byte for byte.
func TestCLICheckpointsPortable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	const final = "7"
	run := func(prefix string, args ...string) {
		t.Helper()
		args = append([]string{"-preset", "cylinder", "-nx", "24", "-ny", "20", "-nz", "12",
			"-out", filepath.Join(dir, prefix)}, args...)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
	}
	run("whole", "-steps", final)
	worlds := map[string][]string{"single": nil, "2x2": {"-decomp", "2x2"}, "patch": {"-decomp", "patch"}}
	for writer, wargs := range worlds {
		for _, k := range []int{3, 4} {
			cp := filepath.Join(dir, fmt.Sprintf("%s-%d.cpk", writer, k))
			// The single rank leaves its final state at -checkpoint; the
			// other worlds write the periodic checkpoint of step k.
			args := []string{"-steps", fmt.Sprint(k), "-checkpoint", cp}
			if wargs != nil {
				args = []string{"-steps", fmt.Sprint(k + 1), "-checkpoint-every", fmt.Sprint(k), "-checkpoint", cp}
			}
			run("w", append(args, wargs...)...)
			lat, err := swio.Restart(cp)
			if err != nil {
				t.Fatal(err)
			}
			if lat.Step() != k {
				t.Fatalf("%s wrote step %d to %s, want %d", writer, lat.Step(), cp, k)
			}
			for reader, rargs := range worlds {
				if reader == writer {
					continue
				}
				prefix := fmt.Sprintf("%s-%d-%s", writer, k, reader)
				run(prefix, append([]string{"-steps", final, "-restore", cp}, rargs...)...)
				for _, suffix := range []string{"_speed_z.ppm", "_speed_y.ppm"} {
					want, err := os.ReadFile(filepath.Join(dir, "whole"+suffix))
					if err != nil {
						t.Fatal(err)
					}
					got, err := os.ReadFile(filepath.Join(dir, prefix+suffix))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("step-%d checkpoint of %s resumed on %s: %s differs from the uninterrupted run", k, writer, reader, suffix)
					}
				}
			}
		}
	}
}

// TestSingleRankFaultRecovery: the single rank runs on the recovery
// ladder, so a crash of rank 0 rolls back to the last verified checkpoint
// and the run ends with the clean run's images — while the same plan with
// no restart budget fails, so the crash did fire. In process, so the race
// detector sees the ladder, the one-rank world and its pool.
func TestSingleRankFaultRecovery(t *testing.T) {
	dir := t.TempDir()
	run := func(name, plan string, restarts int) error {
		cs, err := builtinPreset("cavity")
		if err != nil {
			t.Fatal(err)
		}
		cs.cfg.NX, cs.cfg.NY, cs.cfg.NZ, cs.cfg.Steps = 12, 10, 8, 9
		p := filepath.Join(dir, name)
		o := runOpts{out: p, cpPath: p + ".cpk", cpEvery: 3, faultPlan: plan, maxRestarts: restarts, reportSecs: 1e9}
		w, err := newWorld(cs, o)
		if err != nil {
			t.Fatal(err)
		}
		return run(context.Background(), w, o)
	}
	if err := run("clean", "", 0); err != nil {
		t.Fatal(err)
	}
	const plan = "seed=1;crash@rank=0,step=5"
	if err := run("budgetless", plan, 0); err == nil {
		t.Fatal("a crash with no restart budget must fail the run")
	}
	if err := run("recovered", plan, 1); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"_speed_z.ppm", "_speed_y.ppm", ".cpk"} {
		want, err := os.ReadFile(filepath.Join(dir, "clean"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "recovered"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("recovered%s differs from the clean run", suffix)
		}
	}
}

// TestCLIGridFlags: -decomp and -patch-tiles take a strict grid, every
// part an integer ≥ 1 and as many parts as the flag names, so trailing
// text is refused instead of read as the grid before it. The worlds are
// only laid out, never started.
func TestCLIGridFlags(t *testing.T) {
	for _, c := range []struct {
		decomp, tiles string
		ok            bool
	}{
		{"2x1", "", true},
		{"8x8", "", true},
		{"patch", "2x2x1", true},
		{"2x1x7", "", false},
		{"2x1junk", "", false},
		{"0x1", "", false},
		{"patch65", "", false},
		{"patch", "2x2", false},
		{"patch", "2x2x1junk", false},
		{"patch", "2x2x1x1", false},
	} {
		cs, err := builtinPreset("channel")
		if err != nil {
			t.Fatal(err)
		}
		o := runOpts{decomp: c.decomp, patchTiles: c.tiles, patchWorkers: "core,core", reportSecs: 1e9}
		if _, err := newWorld(cs, o); (err == nil) != c.ok {
			t.Errorf("-decomp %q -patch-tiles %q: err %v, want accepted %v", c.decomp, c.tiles, err, c.ok)
		}
	}
}
