package boundary

import (
	"fmt"
	"testing"
	"time"

	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
)

// BenchmarkChannelApply times each condition of the channel preset on the
// common 48×192×96 grid on AA storage, at both parities, the way the
// stepping loop meets them: a kernel sweep between any two calls has
// evicted the faces from the near caches. The reported figure is the
// fastest call per parity, which is robust against a shared host's noise.
func BenchmarkChannelApply(b *testing.B) {
	l := channelBenchLattice(b)
	for _, c := range channelConditions() {
		b.Run(c.Name(), func(b *testing.B) {
			best := [2]time.Duration{1 << 62, 1 << 62}
			for i := 0; i < b.N; i++ {
				for range best {
					t0 := time.Now()
					ApplyWhole(c, l)
					d := time.Since(t0)
					best[l.Step()&1] = min(best[l.Step()&1], d)
					b.StopTimer()
					l.StepFused()
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(best[0].Microseconds()), "even-µs")
			b.ReportMetric(float64(best[1].Microseconds()), "odd-µs")
		})
	}
}

// BenchmarkChannelStep is the stepping loop of the CLI's single-rank path
// in process — one pool step that runs the conditions inside its sweep —
// on the same grid, so a CPU profile of it (-cpu 1 -cpuprofile) shows
// where a step's time goes without building the user binaries. "channel"
// is the channel preset in the CLI's order (psolve.HaloSet: the z wrap,
// the face conditions, the y wrap; this package cannot import psolve),
// "box" the fully periodic box of a bare -case file. The pool's share on
// the conditions is reported as bc-ms/step.
func BenchmarkChannelStep(b *testing.B) {
	var channel, box Set
	channel.Add(&Periodic{Axis: 2},
		&VelocityInlet{Face: core.FaceXMin, U: [3]float64{0.05, 0, 0}},
		&PressureOutlet{Face: core.FaceXMax, Rho: 1},
		&Periodic{Axis: 1})
	box.Add(&Periodic{Axis: 2}, &Periodic{Axis: 0}, &Periodic{Axis: 1})
	for _, c := range []struct {
		name string
		set  *Set
	}{{"channel", &channel}, {"box", &box}} {
		b.Run(c.name, func(b *testing.B) {
			l := channelBenchLattice(b)
			pool := core.NewPool(l, 0)
			defer pool.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.StepFaces(c.set)
			}
			b.ReportMetric(float64(l.NX*l.NY*l.NZ)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
			b.ReportMetric(pool.FaceTime().Seconds()*1e3/float64(b.N), "bc-ms/step")
		})
	}
}

// channelConditions are the channel preset's conditions: periodic y and
// z, velocity inlet at x−, pressure outlet at x+.
func channelConditions() []Condition {
	return []Condition{
		&Periodic{Axis: 1}, &Periodic{Axis: 2},
		&VelocityInlet{Face: core.FaceXMin, U: [3]float64{0.05, 0, 0}},
		&PressureOutlet{Face: core.FaceXMax, Rho: 1},
	}
}

// channelBenchLattice is the common 48×192×96 grid on AA storage at the
// channel's uniform inflow state.
func channelBenchLattice(b *testing.B) *core.Lattice {
	l, err := core.NewLattice(&lattice.D3Q19, 48, 192, 96, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	l.EnableAA()
	l.InitEquilibrium(1, 0.05, 0, 0)
	return l
}

// BenchmarkFaceConditions is the per-condition yardstick: ns per halo
// cell of each condition kind filling its whole x+ face (the periodic x
// wrap fills both x faces, so its figure is per cell pair), at both AA
// parities, on a hot 8×8×96 lattice whose faces stay in cache and on a
// 24×192×96 block — one rank's share of the common grid on 2×1 ranks.
func BenchmarkFaceConditions(b *testing.B) {
	profile := func(x, y, z int) [3]float64 { return [3]float64{0.05 * float64(1+y%3) / 3, 0, 0} }
	u := [3]float64{0.05, 0, 0}
	conds := []Condition{
		&VelocityInlet{Face: core.FaceXMax, U: u},
		&VelocityInlet{Face: core.FaceXMax, U: u, Profile: profile},
		&PressureOutlet{Face: core.FaceXMax, Rho: 1},
		&NEEInlet{Face: core.FaceXMax, U: u},
		&Outflow{Face: core.FaceXMax},
		&FreeSlip{Face: core.FaceXMax},
		&NoSlip{Face: core.FaceXMax},
		&MovingNoSlip{Face: core.FaceXMax, U: [3]float64{0, 0.05, 0}},
		&Periodic{Axis: 0},
	}
	kinds := []string{"inlet", "inlet-profile", "outlet", "nee", "outflow", "free-slip", "no-slip", "moving-no-slip", "periodic-x"}
	for _, size := range []struct {
		name       string
		nx, ny, nz int
	}{{"hot", 8, 8, 96}, {"block", 24, 192, 96}} {
		for parity := 0; parity < 2; parity++ {
			l, err := core.NewLattice(&lattice.D3Q19, size.nx, size.ny, size.nz, 0.7)
			if err != nil {
				b.Fatal(err)
			}
			l.InitEquilibrium(1, 0.05, 0, 0)
			l.SetStep(parity)
			l.EnableAA()
			cells := float64(l.FaceCells(core.FaceXMax))
			for k, c := range conds {
				b.Run(fmt.Sprintf("%s/%s/parity=%d", size.name, kinds[k], parity), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ApplyWhole(c, l)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
				})
			}
		}
	}
}
