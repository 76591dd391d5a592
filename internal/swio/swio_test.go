package swio

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
)

func buildState(t testing.TB) *core.Lattice {
	t.Helper()
	l, err := core.NewLattice(&lattice.D3Q19, 6, 8, 10, 0.73)
	if err != nil {
		t.Fatal(err)
	}
	l.Smagorinsky = 0.17
	l.Force = [3]float64{1e-6, 0, -2e-6}
	l.SetWall(3, 3, 3)
	l.SetWall(3, 4, 3)
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			for z := 0; z < l.NZ; z++ {
				if l.CellTypeAt(x, y, z) == core.Fluid {
					l.SetCell(x, y, z, 1+0.01*math.Sin(float64(x*y+z)),
						0.02*math.Cos(float64(z)), 0.01, -0.005)
				}
			}
		}
	}
	for s := 0; s < 7; s++ {
		l.PeriodicAll()
		l.StepFused()
	}
	return l
}

// TestCheckpointRoundTrip: a restart must reproduce the state exactly and
// continue the simulation identically.
func TestCheckpointRoundTrip(t *testing.T) {
	orig := buildState(t)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, orig); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Step() != orig.Step() {
		t.Errorf("step = %d, want %d", restored.Step(), orig.Step())
	}
	if restored.Tau != orig.Tau || restored.Smagorinsky != orig.Smagorinsky || restored.Force != orig.Force {
		t.Error("parameters not restored")
	}
	fa, fb := orig.Src(), restored.Src()
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("population %d differs after restart", i)
		}
	}
	for i := range orig.Flags {
		if orig.Flags[i] != restored.Flags[i] {
			t.Fatalf("flag %d differs after restart", i)
		}
	}
	// Continue both for a few steps: identical trajectories.
	for s := 0; s < 5; s++ {
		orig.PeriodicAll()
		orig.StepFused()
		restored.PeriodicAll()
		restored.StepFused()
	}
	fa, fb = orig.Src(), restored.Src()
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("trajectories diverged after restart at %d", i)
		}
	}
}

// TestCheckpointAAParities: a checkpoint of an AA lattice holds the logical
// populations whatever the storage phase. Stopped at an even and at an odd
// step, the restored (double-buffer) lattice must match the AA original in
// every allocated cell and a double-buffer run of the same length in
// every fluid cell, and the run resumed on AA storage must rejoin the
// uninterrupted one bit for bit in every allocated cell.
func TestCheckpointAAParities(t *testing.T) {
	mk := func(aa bool, steps int) *core.Lattice {
		l, err := core.NewLattice(&lattice.D3Q19, 5, 4, 6, 0.73)
		if err != nil {
			t.Fatal(err)
		}
		l.SetWall(2, 2, 3)
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				for z := 0; z < l.NZ; z++ {
					l.SetCell(x, y, z, 1+0.01*math.Sin(float64(x*y+z)),
						0.02*math.Cos(float64(z)), 0.01, -0.005)
				}
			}
		}
		if aa {
			l.EnableAA()
		}
		for s := 0; s < steps; s++ {
			l.PeriodicAll()
			l.StepFused()
		}
		return l
	}
	// Halo and solid cells hold scheme-specific values after a step, so
	// across schemes only interior fluid cells compare (halo = 0).
	sameCells := func(what string, a, b *core.Lattice, halo int) {
		t.Helper()
		var fa, fb []float64
		for y := -halo; y < a.NY+halo; y++ {
			for x := -halo; x < a.NX+halo; x++ {
				for z := -halo; z < a.NZ+halo; z++ {
					if a.CellTypeAt(x, y, z) != b.CellTypeAt(x, y, z) {
						t.Fatalf("%s: flag of cell (%d,%d,%d) differs", what, x, y, z)
					}
					if halo == 0 && a.CellTypeAt(x, y, z) != core.Fluid {
						continue
					}
					fa, fb = a.Populations(x, y, z, fa), b.Populations(x, y, z, fb)
					for i := range fa {
						if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
							t.Fatalf("%s: cell (%d,%d,%d) pop %d: %v != %v", what, x, y, z, i, fa[i], fb[i])
						}
					}
				}
			}
		}
	}
	for _, stop := range []int{2, 3} {
		aa := mk(true, stop)
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, aa); err != nil {
			t.Fatal(err)
		}
		restored, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if restored.Step() != stop {
			t.Fatalf("restored step %d, want %d", restored.Step(), stop)
		}
		// Every allocated cell, solid ones included, read back as written.
		raw := restored.Src()
		var f []float64
		for idx := 0; idx < aa.N; idx++ {
			x, y, z := aa.Coords(idx)
			f = aa.Populations(x, y, z, f)
			for i, v := range f {
				if math.Float64bits(raw[i*aa.N+idx]) != math.Float64bits(v) {
					t.Fatalf("stop %d: cell %d pop %d restored as %v, want %v", stop, idx, i, raw[i*aa.N+idx], v)
				}
			}
		}
		sameCells("restored vs double-buffer run", restored, mk(false, stop), 0)
		// Resume on AA storage and rejoin the uninterrupted run.
		restored.EnableAA()
		for s := stop; s < 7; s++ {
			restored.PeriodicAll()
			restored.StepFused()
		}
		sameCells("resumed vs uninterrupted", restored, mk(true, 7), 1)
	}
}

// TestCheckpointCorruptionDetected (failure injection): flipping any byte
// must be caught by the CRC, truncation by the reader.
func TestCheckpointCorruptionDetected(t *testing.T) {
	orig := buildState(t)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, orig); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, pos := range []int{100, len(data) / 2, len(data) - 20} {
		corrupted := append([]byte(nil), data...)
		corrupted[pos] ^= 0x40
		if _, err := ReadCheckpoint(bytes.NewReader(corrupted)); err == nil {
			t.Errorf("corruption at byte %d not detected", pos)
		}
	}
	// Truncation.
	if _, err := ReadCheckpoint(bytes.NewReader(data[:len(data)/3])); err == nil {
		t.Error("truncated checkpoint not detected")
	}
	// Wrong magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic not detected")
	}
}

func TestCheckpointFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.cpk")
	orig := buildState(t)
	if err := Checkpoint(path, orig); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
	restored, err := Restart(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Step() != orig.Step() {
		t.Errorf("restart step = %d, want %d", restored.Step(), orig.Step())
	}
	if _, err := Restart(filepath.Join(dir, "missing.cpk")); err == nil {
		t.Error("missing file must error")
	}
}

func TestGroupPlan(t *testing.T) {
	g, err := NewGroupPlan(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Groups() != 3 {
		t.Errorf("groups = %d, want 3", g.Groups())
	}
	if !g.IsLeader(0) || !g.IsLeader(4) || !g.IsLeader(8) || g.IsLeader(5) {
		t.Error("leader detection wrong")
	}
	if g.Leader(6) != 4 || g.Leader(9) != 8 {
		t.Error("leader lookup wrong")
	}
	members := g.Members(8)
	if len(members) != 2 || members[0] != 8 || members[1] != 9 {
		t.Errorf("members(8) = %v", members)
	}
	if _, err := NewGroupPlan(0, 4); err == nil {
		t.Error("want validation error")
	}
}

// TestGroupPlanPartition (property): every rank belongs to exactly one
// group, led by its leader.
func TestGroupPlanPartition(t *testing.T) {
	f := func(r, gs uint8) bool {
		ranks := int(r%200) + 1
		size := int(gs%16) + 1
		g, err := NewGroupPlan(ranks, size)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		leaders := 0
		for rank := 0; rank < ranks; rank++ {
			if g.IsLeader(rank) {
				leaders++
				for _, m := range g.Members(rank) {
					if seen[m] {
						return false
					}
					seen[m] = true
					if g.Leader(m) != rank {
						return false
					}
				}
			}
		}
		return leaders == g.Groups() && len(seen) == ranks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCheckpointWriteFailurePaths: failures while writing leave no partial
// file behind.
func TestCheckpointWriteFailurePaths(t *testing.T) {
	orig := buildState(t)
	// Unwritable directory.
	if err := Checkpoint("/nonexistent-dir/x.cpk", orig); err == nil {
		t.Error("unwritable path must error")
	}
	// Path collision with a directory.
	dir := t.TempDir()
	sub := filepath.Join(dir, "taken")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Checkpoint(sub, orig); err == nil {
		t.Error("directory-shaped target must error")
	}
	if _, err := os.Stat(sub + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind after failure")
	}
}
