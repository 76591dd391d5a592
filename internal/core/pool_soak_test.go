package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"sunwaylb/internal/lattice"
	"sunwaylb/internal/leaktest"
)

// TestPoolSoak drives a worker pool for many steps against a serial AA
// twin, verifying bit-identity and mass conservation throughout, then
// rebuilds a pool of a different width over the same lattice and keeps
// going. Designed to run under -race (ci.sh perf): the per-step channel
// handoffs are the only synchronisation between the workers and the
// caller, so any missing happens-before edge in Pool shows up here.
func TestPoolSoak(t *testing.T) {
	mk := func() *Lattice {
		l, err := NewLattice(&lattice.D3Q19, 10, 12, 9, 0.75)
		if err != nil {
			t.Fatalf("NewLattice: %v", err)
		}
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				for z := 0; z < l.NZ; z++ {
					l.SetCell(x, y, z, 1+0.03*math.Sin(float64(x+y+z)),
						0.02*math.Cos(float64(x)), 0.01*math.Sin(float64(y)), 0)
				}
			}
		}
		l.EnableAA()
		return l
	}
	ser, par := mk(), mk()
	mass0 := ser.TotalMass()

	run := func(pool *Pool, steps int) {
		t.Helper()
		for s := 0; s < steps; s++ {
			ser.PeriodicAll()
			par.PeriodicAll()
			ser.StepFused()
			pool.Step()
		}
	}

	p1 := NewPool(par, 4)
	if got := p1.Workers(); got != 4 {
		t.Fatalf("Workers() = %d, want 4", got)
	}
	run(p1, 25)
	p1.Close()
	p1.Close() // idempotent

	// A second pool over the same lattice must pick up mid-run (odd
	// parity included) without disturbing the state.
	p2 := NewPool(par, 3)
	run(p2, 25)
	defer p2.Close()

	if ser.Step() != par.Step() || ser.Step() != 50 {
		t.Fatalf("step counters diverged: serial %d, pool %d", ser.Step(), par.Step())
	}
	var fs, fp []float64
	for y := 0; y < ser.NY; y++ {
		for x := 0; x < ser.NX; x++ {
			for z := 0; z < ser.NZ; z++ {
				fs = ser.Populations(x, y, z, fs)
				fp = par.Populations(x, y, z, fp)
				for q := range fs {
					if math.Float64bits(fs[q]) != math.Float64bits(fp[q]) {
						t.Fatalf("cell (%d,%d,%d) pop %d: serial %v pool %v",
							x, y, z, q, fs[q], fp[q])
					}
				}
			}
		}
	}
	if mass := par.TotalMass(); math.Abs(mass-mass0) > 1e-9*mass0 {
		t.Fatalf("mass drifted: %v -> %v", mass0, mass)
	}
}

// TestPoolCloseLeavesNoGoroutines: Close stops every worker the pool
// started, so a run that builds and closes pools does not accumulate
// goroutines.
func TestPoolCloseLeavesNoGoroutines(t *testing.T) {
	l, err := NewLattice(&lattice.D3Q19, 8, 12, 6, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	l.InitEquilibrium(1, 0.02, 0.01, 0)
	defer leaktest.Check(t)()
	for _, workers := range []int{1, 3, 4} {
		p := NewPool(l, workers)
		for s := 0; s < 3; s++ {
			l.PeriodicAll()
			p.Step()
		}
		p.Close()
	}
}

// TestPoolSpeedup requires the persistent worker pool to beat the
// serial AA stepper at 4 workers. A pool cannot outrun serial without
// real parallel hardware, so hosts with fewer than 4 CPUs skip (the
// benchsuite still records the kernel-aa-pool-4 case there, with
// workers and num_cpu counters exposing the environment).
func TestPoolSpeedup(t *testing.T) {
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("need ≥4 CPUs for a meaningful pool-vs-serial race, have %d", n)
	}
	mk := func() *Lattice {
		l, err := NewLattice(&lattice.D3Q19, 48, 48, 48, 0.8)
		if err != nil {
			t.Fatalf("NewLattice: %v", err)
		}
		l.InitEquilibrium(1, 0.02, 0.01, 0.005)
		l.EnableAA()
		return l
	}
	const steps = 8
	timeIt := func(step func()) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			for s := 0; s < steps; s++ {
				step()
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	ser := mk()
	serial := timeIt(func() { ser.PeriodicAll(); ser.StepFused() })
	par := mk()
	pool := NewPool(par, 4)
	defer pool.Close()
	pooled := timeIt(func() { par.PeriodicAll(); pool.Step() })
	t.Logf("serial %v, pool(4) %v over %d steps (best of 3)", serial, pooled, steps)
	if pooled >= serial {
		t.Errorf("pool(4) %v not faster than serial %v with %d CPUs",
			pooled, serial, runtime.NumCPU())
	}
}
