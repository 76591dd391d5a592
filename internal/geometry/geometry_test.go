package geometry

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
)

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != (Vec3{-3, 6, -3}) {
		t.Errorf("Cross = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		bound := func(v float64) float64 { return math.Mod(v, 100) }
		a := Vec3{bound(ax), bound(ay), bound(az)}
		b := Vec3{bound(bx), bound(by), bound(bz)}
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		tol := 1e-9 * (scale + 1)
		return math.Abs(c.Dot(a)) < tol && math.Abs(c.Dot(b)) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSphereContains(t *testing.T) {
	s := Sphere{Center: Vec3{1, 1, 1}, Radius: 0.5}
	if !s.Contains(Vec3{1, 1, 1.4}) {
		t.Error("point inside sphere rejected")
	}
	if s.Contains(Vec3{1, 1, 1.6}) {
		t.Error("point outside sphere accepted")
	}
	b := s.Bounds()
	if b.Min != (Vec3{0.5, 0.5, 0.5}) || b.Max != (Vec3{1.5, 1.5, 1.5}) {
		t.Errorf("bounds = %+v", b)
	}
}

func TestCylinderZContains(t *testing.T) {
	c := CylinderZ{CX: 0, CY: 0, Radius: 1, ZMin: 0, ZMax: 10}
	cases := []struct {
		p    Vec3
		want bool
	}{
		{Vec3{0.5, 0.5, 5}, true},
		{Vec3{0.9, 0.9, 5}, false}, // outside radius
		{Vec3{0, 0, -1}, false},    // below
		{Vec3{0, 0, 11}, false},    // above
		{Vec3{1, 0, 0}, true},      // on the surface
	}
	for _, tc := range cases {
		if got := c.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestUnionBounds(t *testing.T) {
	u := Union{
		Box{AABB{Min: Vec3{0, 0, 0}, Max: Vec3{1, 1, 1}}},
		Box{AABB{Min: Vec3{2, 2, 2}, Max: Vec3{3, 3, 3}}},
	}
	b := u.Bounds()
	if b.Min != (Vec3{0, 0, 0}) || b.Max != (Vec3{3, 3, 3}) {
		t.Errorf("union bounds = %+v", b)
	}
	if !u.Contains(Vec3{0.5, 0.5, 0.5}) || !u.Contains(Vec3{2.5, 2.5, 2.5}) {
		t.Error("union must contain both members")
	}
	if u.Contains(Vec3{1.5, 1.5, 1.5}) {
		t.Error("union must not contain the gap")
	}
	if (Union{}).Contains(Vec3{0, 0, 0}) {
		t.Error("empty union contains nothing")
	}
}

func TestSuboffShape(t *testing.T) {
	s := Suboff(0, 0, 0, 10, 1)
	// Axis points inside the hull.
	if !s.Contains(Vec3{5, 0, 0}) {
		t.Error("mid-body on axis must be inside")
	}
	// Parallel middle body has full radius.
	if !s.Contains(Vec3{5, 0.99, 0}) || s.Contains(Vec3{5, 1.01, 0}) {
		t.Error("mid-body radius wrong")
	}
	// The nose tapers.
	if s.Contains(Vec3{0.05, 0.8, 0}) {
		t.Error("nose should taper")
	}
	// Outside the axial extent.
	if s.Contains(Vec3{-0.1, 0, 0}) || s.Contains(Vec3{10.1, 0, 0}) {
		t.Error("outside axial extent must be outside")
	}
	// Stern is thinner than mid-body.
	if s.Contains(Vec3{9.9, 0.5, 0}) {
		t.Error("stern should taper")
	}
	// The radius function is continuous across segment joints.
	r := s.Radius
	for _, x := range []float64{2.2, 7.0} {
		lo, hi := r(x-1e-6), r(x+1e-6)
		if math.Abs(lo-hi) > 1e-3 {
			t.Errorf("radius discontinuity at x=%v: %v vs %v", x, lo, hi)
		}
	}
}

func TestBoxMeshWatertight(t *testing.T) {
	b := AABB{Min: Vec3{0, 0, 0}, Max: Vec3{2, 3, 4}}
	m := BoxMesh(b)
	if len(m.Tris) != 12 {
		t.Fatalf("box mesh has %d triangles, want 12", len(m.Tris))
	}
	// Ray-parity classification must agree with the analytic box for a
	// sample grid.
	for _, tc := range []struct {
		p    Vec3
		want bool
	}{
		{Vec3{1, 1.5, 2}, true},
		{Vec3{0.1, 0.1, 0.1}, true},
		{Vec3{-0.1, 1, 1}, false},
		{Vec3{1, 3.5, 1}, false},
		{Vec3{1.9, 2.9, 3.9}, true},
		{Vec3{1, 1, 4.5}, false},
	} {
		if got := m.Contains(tc.p); got != tc.want {
			t.Errorf("mesh.Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestSTLBinaryRoundTrip(t *testing.T) {
	m := BoxMesh(AABB{Min: Vec3{0, 0, 0}, Max: Vec3{1, 2, 3}})
	var buf bytes.Buffer
	if err := m.WriteBinarySTL(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadSTL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Tris) != len(m.Tris) {
		t.Fatalf("round trip lost facets: %d -> %d", len(m.Tris), len(m2.Tris))
	}
	for i := range m.Tris {
		for v := 0; v < 3; v++ {
			d := m.Tris[i].V[v].Sub(m2.Tris[i].V[v])
			if d.Norm() > 1e-6 {
				t.Fatalf("vertex %d/%d moved by %v", i, v, d.Norm())
			}
		}
	}
}

func TestSTLASCIIRoundTrip(t *testing.T) {
	m := BoxMesh(AABB{Min: Vec3{0, 0, 0}, Max: Vec3{1, 1, 1}})
	var buf bytes.Buffer
	if err := m.WriteASCIISTL(&buf, "box"); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadSTL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Tris) != 12 {
		t.Fatalf("ASCII round trip: %d facets", len(m2.Tris))
	}
	if !m2.Contains(Vec3{0.5, 0.5, 0.5}) {
		t.Error("round-tripped mesh lost its interior")
	}
}

func TestReadSTLErrors(t *testing.T) {
	if _, err := ReadSTL(bytes.NewReader([]byte("solid x\nendsolid x\n"))); err == nil {
		t.Error("want error for facet-free ASCII STL")
	}
	if _, err := ReadSTL(bytes.NewReader(make([]byte, 10))); err == nil {
		t.Error("want error for truncated binary STL")
	}
	// Binary header claiming more facets than present.
	data := make([]byte, 90)
	data[80] = 200
	if _, err := ReadSTL(bytes.NewReader(data)); err == nil {
		t.Error("want error for facet-count overflow")
	}
}

func TestVoxelizeSphereVolume(t *testing.T) {
	s := Sphere{Center: Vec3{8, 8, 8}, Radius: 6}
	g := VoxelGrid{NX: 16, NY: 16, NZ: 16, H: 1}
	mask := Voxelize(s, g)
	vol := SolidFraction(mask) * float64(16*16*16)
	want := 4.0 / 3.0 * math.Pi * 6 * 6 * 6
	if math.Abs(vol-want)/want > 0.05 {
		t.Errorf("voxelized sphere volume %v, want %v ± 5%%", vol, want)
	}
}

func TestVoxelizeMeshMatchesAnalytic(t *testing.T) {
	b := AABB{Min: Vec3{2, 2, 2}, Max: Vec3{6, 7, 8}}
	g := VoxelGrid{NX: 10, NY: 10, NZ: 10, H: 1}
	analytic := Voxelize(Box{b}, g)
	mesh := Voxelize(BoxMesh(b), g)
	diff := 0
	for i := range analytic {
		if analytic[i] != mesh[i] {
			diff++
		}
	}
	if diff != 0 {
		t.Errorf("mesh and analytic voxelization differ in %d cells", diff)
	}
}

func TestCityDeterministicAndGrounded(t *testing.T) {
	p := DefaultUrbanParams()
	a := City(p)
	b := City(p)
	if len(a) != len(b) || len(a) != p.BlocksX*p.BlocksY {
		t.Fatalf("city has %d buildings, want %d (and deterministic)", len(a), p.BlocksX*p.BlocksY)
	}
	for i := range a {
		ba, bb := a[i].Bounds(), b[i].Bounds()
		if ba != bb {
			t.Fatalf("city generation not deterministic at building %d", i)
		}
		if ba.Min.Z != 0 {
			t.Errorf("building %d floats above ground: z0=%v", i, ba.Min.Z)
		}
		if ba.Max.Z < p.MinHeight || ba.Max.Z > p.MaxHeight {
			t.Errorf("building %d height %v outside [%v,%v]", i, ba.Max.Z, p.MinHeight, p.MaxHeight)
		}
	}
	// Different seeds give different cities.
	p2 := p
	p2.Seed++
	c := City(p2)
	same := true
	for i := range a {
		if a[i].Bounds() != c[i].Bounds() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical cities")
	}
}

func TestTerrainRollingHills(t *testing.T) {
	tr := RollingHills(100, 100, 10, 4, 7)
	if !tr.Contains(Vec3{50, 50, 1}) {
		t.Error("point below terrain must be inside")
	}
	if tr.Contains(Vec3{50, 50, 20}) {
		t.Error("point above terrain must be outside")
	}
	if tr.Contains(Vec3{-5, 50, 1}) {
		t.Error("point outside footprint must be outside")
	}
	// Height stays within base ± amp.
	for x := 0.0; x <= 100; x += 7 {
		for y := 0.0; y <= 100; y += 7 {
			h := tr.Height(x, y)
			if h < 6-1e-9 || h > 14+1e-9 {
				t.Fatalf("height %v out of [6,14] at (%v,%v)", h, x, y)
			}
		}
	}
}

// TestVoxelGridWalls: a voxelized mask, handed to core.BuildLattice
// through VoxelGrid.Walls, marks the shape's cells and only those.
func TestVoxelGridWalls(t *testing.T) {
	cyl := CylinderZ{CX: 6, CY: 6, Radius: 3, ZMin: 0, ZMax: 12}
	g := VoxelGrid{NX: 12, NY: 12, NZ: 12, H: 1}
	l, err := core.BuildLattice(&lattice.D3Q19, core.Box{NX: 12, NY: 12, NZ: 12}, 0.8,
		g.Walls(Voxelize(cyl, g)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.CellTypeAt(6, 6, 6) != core.Wall {
		t.Error("cylinder center must be wall")
	}
	if l.CellTypeAt(0, 0, 6) != core.Fluid {
		t.Error("far corner must stay fluid")
	}
}

func BenchmarkVoxelizeCity(b *testing.B) {
	city := City(DefaultUrbanParams())
	g := VoxelGrid{NX: 64, NY: 64, NZ: 16, Origin: Vec3{0, 0, 0}, H: 1000.0 / 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Voxelize(city, g)
	}
}

func TestMeshTransforms(t *testing.T) {
	m := BoxMesh(AABB{Min: Vec3{0, 0, 0}, Max: Vec3{2, 2, 2}})
	tr := m.Translate(Vec3{10, 0, 0})
	if b := tr.Bounds(); b.Min.X != 10 || b.Max.X != 12 || b.Min.Y != 0 {
		t.Errorf("translate bounds = %+v", b)
	}
	sc := m.Scale(3)
	if b := sc.Bounds(); b.Max.X != 6 || b.Max.Z != 6 {
		t.Errorf("scale bounds = %+v", b)
	}
	// 90° rotation about z maps (2,0) to (0,2).
	rot := m.RotateZ(math.Pi / 2)
	b := rot.Bounds()
	if math.Abs(b.Min.X+2) > 1e-12 || math.Abs(b.Max.Y-2) > 1e-12 {
		t.Errorf("rotate bounds = %+v", b)
	}
	// Volume is preserved by rotation: voxel counts agree.
	g := VoxelGrid{NX: 12, NY: 12, NZ: 6, Origin: Vec3{-4, -2, -1}, H: 0.5}
	if a, bb := SolidFraction(Voxelize(m, g)), SolidFraction(Voxelize(rot, g)); math.Abs(a-bb) > 0.02 {
		t.Errorf("rotation changed the voxel volume: %v vs %v", a, bb)
	}
	// The original mesh is untouched.
	if ob := m.Bounds(); ob.Max.X != 2 {
		t.Error("transforms must not mutate the source mesh")
	}
}

func TestMeshFitTo(t *testing.T) {
	m := BoxMesh(AABB{Min: Vec3{5, 5, 5}, Max: Vec3{7, 9, 6}}) // 2×4×1 box
	target := AABB{Min: Vec3{0, 0, 0}, Max: Vec3{8, 8, 8}}
	fit := m.FitTo(target)
	b := fit.Bounds()
	// Limited by y: scale 2 → 4×8×2, centred in the 8³ target.
	if math.Abs(b.Size().Y-8) > 1e-9 || math.Abs(b.Size().X-4) > 1e-9 {
		t.Errorf("fit size = %+v", b.Size())
	}
	cx := (b.Min.X + b.Max.X) / 2
	if math.Abs(cx-4) > 1e-9 {
		t.Errorf("fit centre x = %v, want 4", cx)
	}
	if b.Min.X < -1e-9 || b.Max.Z > 8+1e-9 {
		t.Errorf("fit escapes the target: %+v", b)
	}
}
