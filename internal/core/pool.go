package core

import (
	"fmt"
	"runtime"
	"sync"
)

// Pool is a persistent worker-pool stepper for AA lattices: the paper's
// answer to spawn-per-step parallelism (§IV-C-2, the CPE worker model).
// NewPool starts long-lived goroutines, each owning a fixed contiguous
// band of y rows; Step releases every worker once and waits for them
// all, with no per-step allocation — one channel send/receive pair per
// worker is the whole protocol. Because AA cells never read another
// cell's writes within a step, the pool is bit-identical to the serial
// stepper regardless of scheduling.
type Pool struct {
	l      *Lattice
	start  []chan struct{}
	done   chan struct{}
	quit   chan struct{}
	ranges [][2]int
	once   sync.Once
}

// NewPool creates a pool of the given number of workers (≤ 0 selects
// GOMAXPROCS, capped at the row count) over the lattice, switching it to
// AA storage if it is not already. Close must be called to release the
// worker goroutines.
func NewPool(l *Lattice, workers int) *Pool {
	l.EnableAA()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > l.NY {
		workers = l.NY
	}
	if workers < 1 {
		workers = 1
	}
	p := &Pool{l: l, done: make(chan struct{}, workers), quit: make(chan struct{})}
	chunk := (l.NY + workers - 1) / workers
	for w := 0; w < workers; w++ {
		y0 := w * chunk
		y1 := y0 + chunk
		if y1 > l.NY {
			y1 = l.NY
		}
		if y0 >= y1 {
			break
		}
		ch := make(chan struct{}, 1)
		p.start = append(p.start, ch)
		p.ranges = append(p.ranges, [2]int{y0, y1})
		go p.worker(ch, y0, y1)
	}
	return p
}

// Workers returns the number of live worker goroutines.
func (p *Pool) Workers() int { return len(p.start) }

// Kernel names the code path Step dispatches to — the lattice's
// KernelPath plus the pool width, e.g. "aa avx512 d3q19 pool×1".
func (p *Pool) Kernel() string {
	return fmt.Sprintf("%s pool×%d", p.l.KernelPath(), p.Workers())
}

// worker processes its fixed row band every time it is released, until
// the pool's quit channel closes. Step and Close are never concurrent
// (the pool contract), so the select never races a release against
// shutdown.
func (p *Pool) worker(start <-chan struct{}, y0, y1 int) {
	for {
		select {
		case <-p.quit:
			return
		case <-start:
			p.l.StepRegion(0, p.l.NX, y0, y1)
			p.done <- struct{}{}
		}
	}
}

// Step advances the lattice one time step: release every worker, wait for
// every worker, bump the step counter. The channel handoffs order the
// workers' writes before the counter bump and the caller's subsequent
// reads, so the pool is race-free by construction.
func (p *Pool) Step() {
	for _, ch := range p.start {
		ch <- struct{}{}
	}
	for range p.start {
		<-p.done
	}
	p.l.step++
}

// Run advances n steps.
func (p *Pool) Run(n int) {
	for s := 0; s < n; s++ {
		p.Step()
	}
}

// Close shuts the workers down by closing the shared quit channel —
// closed exactly once. Idempotent; the pool must not be stepped
// afterwards.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.quit) })
}
