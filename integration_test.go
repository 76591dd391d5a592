// Integration tests: full pipelines across module boundaries — geometry →
// decomposition → distributed solve → post-processing → checkpoint →
// restart, and the Sunway-simulated engine inside a realistic case. These
// are the "downstream user" workflows the framework exists for (Fig. 4).
package sunwaylb_test

import (
	"bytes"
	"math"
	"os"
	"testing"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/config"
	"sunwaylb/internal/core"
	"sunwaylb/internal/geometry"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/sunway"
	"sunwaylb/internal/swio"
	"sunwaylb/internal/swlb"
	"sunwaylb/internal/vis"
)

// TestPipelineSTLToDistributedSolve: an STL body is voxelized, solved
// across 6 simulated MPI ranks with inlet/outlet boundary conditions, and
// the result matches the single-rank run bit for bit; the wake it leaves
// is physically sensible.
func TestPipelineSTLToDistributedSolve(t *testing.T) {
	// Build an STL box obstacle in memory (CAD-path stand-in).
	box := geometry.BoxMesh(geometry.AABB{
		Min: geometry.Vec3{X: 10, Y: 8, Z: 2},
		Max: geometry.Vec3{X: 16, Y: 16, Z: 8},
	})
	var stl bytes.Buffer
	if err := box.WriteBinarySTL(&stl); err != nil {
		t.Fatal(err)
	}
	mesh, err := geometry.ReadSTL(&stl)
	if err != nil {
		t.Fatal(err)
	}
	const nx, ny, nz = 36, 24, 10
	mask := geometry.Voxelize(mesh, geometry.VoxelGrid{NX: nx, NY: ny, NZ: nz, H: 1})
	walls := func(x, y, z int) bool { return mask[(y*nx+x)*nz+z] }

	opts := psolve.Options{
		GNX: nx, GNY: ny, GNZ: nz,
		Tau: 0.7,
		FaceBC: map[core.Face]boundary.Condition{
			core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{0.04, 0, 0}},
			core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
		},
		PeriodicY: true, PeriodicZ: true,
		Walls: walls,
		Init:  func(x, y, z int) (float64, float64, float64, float64) { return 1, 0.04, 0, 0 },
	}
	run := func(px, py int) *core.MacroField {
		o := opts
		o.PX, o.PY = px, py
		m, err := psolve.Run(o, 60)
		if err != nil {
			t.Fatalf("%dx%d: %v", px, py, err)
		}
		return m
	}
	serial := run(1, 1)
	par := run(3, 2)
	for i := range serial.Rho {
		if serial.Rho[i] != par.Rho[i] || serial.Ux[i] != par.Ux[i] {
			t.Fatalf("distributed STL case diverged from serial at %d", i)
		}
	}
	// Physics: the wake behind the box is slower than the free stream
	// beside it.
	wake := serial.Ux[serial.Idx(20, 12, 5)]
	free := serial.Ux[serial.Idx(20, 2, 5)]
	if wake >= free {
		t.Errorf("wake (%v) should lag free stream (%v)", wake, free)
	}
	// Post-processing runs off the gathered field.
	q := vis.QCriterion(serial)
	if len(q) != nx*ny*nz {
		t.Fatal("Q-criterion size mismatch")
	}
	var img bytes.Buffer
	if err := vis.WritePPM(&img, vis.SpeedSlice(serial, vis.AxisZ, nz/2), 0, 0); err != nil {
		t.Fatal(err)
	}
	if img.Len() == 0 {
		t.Fatal("empty PPM")
	}
}

// TestPipelineCheckpointRestartContinuation: interrupting a run with a
// checkpoint + restore yields exactly the same trajectory as running
// straight through.
func TestPipelineCheckpointRestartContinuation(t *testing.T) {
	build := func() (*core.Lattice, *boundary.Set) {
		cyl := geometry.CylinderZ{CX: 6, CY: 6, Radius: 2.5, ZMin: -1, ZMax: 9}
		g := geometry.VoxelGrid{NX: 20, NY: 12, NZ: 8, H: 1}
		l, err := core.BuildLattice(&lattice.D3Q19, core.Box{NX: 20, NY: 12, NZ: 8}, 0.65,
			g.Walls(geometry.Voxelize(cyl, g)), nil)
		if err != nil {
			t.Fatal(err)
		}
		l.Smagorinsky = 0.17
		var s boundary.Set
		s.Add(
			&boundary.Periodic{Axis: 2},
			&boundary.FreeSlip{Face: core.FaceYMin}, &boundary.FreeSlip{Face: core.FaceYMax},
			&boundary.NEEInlet{Face: core.FaceXMin, U: [3]float64{0.05, 0, 0}},
			&boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
		)
		return l, &s
	}
	// Straight-through run: 40 steps.
	ref, refBC := build()
	for s := 0; s < 40; s++ {
		refBC.Apply(ref)
		ref.StepFused()
	}
	// Interrupted run: 25 steps, checkpoint, restore, 15 more.
	l1, bc1 := build()
	for s := 0; s < 25; s++ {
		bc1.Apply(l1)
		l1.StepFused()
	}
	var cp bytes.Buffer
	if err := swio.WriteCheckpoint(&cp, l1); err != nil {
		t.Fatal(err)
	}
	l2, err := swio.ReadCheckpoint(bytes.NewReader(cp.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if l2.Step() != 25 {
		t.Fatalf("restored step = %d", l2.Step())
	}
	_, bc2 := build()
	for s := 0; s < 15; s++ {
		bc2.Apply(l2)
		l2.StepFused()
	}
	fa, fb := ref.Src(), l2.Src()
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("restarted trajectory diverged at %d", i)
		}
	}
}

// TestPipelineSunwayEngineCase: a full case (city geometry + LES + wind
// BCs) stepped through the simulated Sunway core group is bit-identical to
// the reference kernel and produces a positive simulated GLUPS figure.
func TestPipelineSunwayEngineCase(t *testing.T) {
	build := func() (*core.Lattice, *boundary.Set) {
		p := geometry.DefaultUrbanParams()
		p.SizeX, p.SizeY = 16, 24
		p.BlocksX, p.BlocksY = 2, 3
		p.MinHeight, p.MaxHeight = 3, 8
		g := geometry.VoxelGrid{NX: 16, NY: 24, NZ: 12, H: 1}
		l, err := core.BuildLattice(&lattice.D3Q19, core.Box{NX: 16, NY: 24, NZ: 12}, 0.58,
			g.Walls(geometry.Voxelize(geometry.City(p), g)), nil)
		if err != nil {
			t.Fatal(err)
		}
		l.Smagorinsky = 0.17
		var s boundary.Set
		s.Add(
			&boundary.Periodic{Axis: 1},
			&boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{0.04, 0, 0}},
			&boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
			&boundary.FreeSlip{Face: core.FaceZMax},
			&boundary.NoSlip{Face: core.FaceZMin},
		)
		return l, &s
	}
	ref, refBC := build()
	lat, bcs := build()
	// Boundary conditions must be applied once before engine
	// construction so the column partition sees the wall flags.
	refBC.Apply(ref)
	bcs.Apply(lat)
	eng, err := swlb.New(lat, sunway.TestChip(8, 64*1024),
		swlb.Options{UseCPEs: true, Fused: true, YSharing: true, ComputeEff: 0.5, BZ: 12})
	if err != nil {
		t.Fatal(err)
	}
	var simT float64
	for s := 0; s < 10; s++ {
		refBC.Apply(ref)
		ref.StepFused()
		bcs.Apply(lat)
		simT = eng.Step()
	}
	fa, fb := ref.Src(), lat.Src()
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("Sunway engine diverged from reference at %d", i)
		}
	}
	if simT <= 0 {
		t.Error("simulated step time must be positive")
	}
	if eng.MixedColumns() == 0 {
		t.Error("city case must exercise the MPE collaboration path")
	}
}

// TestPipelineCaseConfigRoundTrip: a JSON case drives a run end to end.
func TestPipelineCaseConfigRoundTrip(t *testing.T) {
	js := `{"name":"itest","nx":12,"ny":10,"nz":8,"re":80,"u":0.05,"l":8,"steps":20}`
	c, err := config.Read(bytes.NewReader([]byte(js)))
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.NewLattice(&lattice.D3Q19, c.NX, c.NY, c.NZ, c.Tau)
	if err != nil {
		t.Fatal(err)
	}
	l.InitEquilibrium(1, c.U, 0, 0)
	for s := 0; s < c.Steps; s++ {
		l.PeriodicAll()
		l.StepFused()
	}
	if v := l.MaxVelocity(); math.Abs(v-c.U) > 1e-9 {
		t.Errorf("uniform periodic flow changed speed: %v", v)
	}
}

// TestShippedCaseFiles: every case file under cases/ parses and validates.
func TestShippedCaseFiles(t *testing.T) {
	entries, err := os.ReadDir("cases")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected ≥3 shipped cases, found %d", len(entries))
	}
	for _, e := range entries {
		f, err := os.Open("cases/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		c, err := config.Read(f)
		f.Close()
		if err != nil {
			t.Errorf("case %s: %v", e.Name(), err)
			continue
		}
		if c.Tau <= 0.5 || c.Steps <= 0 {
			t.Errorf("case %s: derived tau=%v steps=%d", e.Name(), c.Tau, c.Steps)
		}
	}
}
