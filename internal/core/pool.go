package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Pool is a persistent worker-pool stepper for AA lattices: the paper's
// answer to spawn-per-step parallelism (§IV-C-2, the CPE worker model).
// NewPool starts long-lived goroutines, each owning a fixed contiguous
// band of y rows; Step releases every worker once and waits for them
// all, with no per-step allocation — one channel send/receive pair per
// worker is the whole protocol. Because AA cells never read another
// cell's writes within a step, the pool is bit-identical to the serial
// stepper regardless of scheduling.
//
// StepFaces also runs the face conditions, inside the sweep: each worker
// fills the next step's halo on a y-plane as soon as its sweep has left
// that plane final, while the plane's lines are still in cache, and the
// sweep reads across the axes the conditions wrap instead of filling
// their halo.
type Pool struct {
	l     *Lattice
	start []chan struct{}
	done  chan struct{}
	quit  chan struct{}
	once  sync.Once

	// faces is the set the running StepFaces fills the halo with (nil
	// during a plain Step), wrap the axes the running sweep reads across
	// and next the lattice one step ahead — the view it fills through.
	// All are written before the workers are released.
	faces Faces
	wrap  Wrap
	next  Lattice
	// tail lists the allocated y-planes the workers leave to ApplyTail:
	// the two halo planes and each band's first and last plane.
	tail []int
	// prepared, preparedLen and preparedAt say which conditions the halo
	// holds and for which step; anything else makes StepFaces fill it
	// whole first.
	prepared    Faces
	preparedLen int
	preparedAt  int
	// planeTime is each worker's time on per-plane conditions in the
	// running step; faceTime the total over all steps.
	planeTime []time.Duration
	faceTime  time.Duration
}

// Faces is an ordered set of face conditions a Pool runs inside its sweep
// (boundary.Set implements it). The y-plane split is the contract: a
// condition on an x or z face (periodic x and z included) fills, for
// allocated y-plane ay, only cells of that plane and reads only cells of
// that plane, so the planes may run on different workers in any order.
// A condition on a y face spans planes and runs whole. The pool keeps the
// halo a set prepared from one step to the next, so a set's conditions
// must not change while it is being stepped (see StepFaces).
//
// The per-plane and tail fills serve a sweep that reads across the axes
// Wrap marks: on those axes they fill only what PeriodicEdges fills.
type Faces interface {
	// Len is the number of conditions; a change makes the pool refill
	// the halo whole.
	Len() int
	// Apply runs every condition whole, in order.
	Apply(l *Lattice)
	// Wrap marks the axes the set wraps periodically and that no other
	// condition of the set touches: the axes its sweep reads across.
	Wrap() Wrap
	// ApplyPlane runs, in order, the x- and z-face conditions on
	// allocated y-plane ay alone. Pool workers call it concurrently for
	// distinct planes.
	ApplyPlane(l *Lattice, ay int)
	// ApplyTail runs every condition in order: the x- and z-face ones on
	// the given allocated y-planes, the y-face ones whole.
	ApplyTail(l *Lattice, planes []int)
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
	p.tail = []int{0, l.AY - 1}
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
		p.tail = append(p.tail, y0+1, y1) // allocated planes of rows y0, y1−1
		go p.worker(w, ch, y0, y1)
	}
	slices.Sort(p.tail)
	p.tail = slices.Compact(p.tail)
	p.planeTime = make([]time.Duration, len(p.start))
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
func (p *Pool) worker(w int, start <-chan struct{}, y0, y1 int) {
	// Once row y is swept, allocated plane y (row y−1) is final when rows
	// y−2…y — all that read or write it — are this worker's.
	rowDone := func(y int) {
		if y < y0+2 {
			return
		}
		t := time.Now()
		p.faces.ApplyPlane(&p.next, y)
		p.planeTime[w] += time.Since(t)
	}
	for {
		select {
		case <-p.quit:
			return
		case <-start:
			var rd func(y int)
			if p.faces != nil {
				rd = rowDone
			}
			p.l.SweepRows(0, p.l.NX, y0, y1, p.wrap, rd)
			p.done <- struct{}{}
		}
	}
}

// release runs one sweep on every worker and waits for them all.
func (p *Pool) release() {
	for _, ch := range p.start {
		ch <- struct{}{}
	}
	for range p.start {
		<-p.done
	}
}

// Step advances the lattice one time step: release every worker, wait for
// every worker, bump the step counter. The channel handoffs order the
// workers' writes before the counter bump and the caller's subsequent
// reads, so the pool is race-free by construction. The sweep reads the
// whole halo: the caller fills it first.
func (p *Pool) Step() {
	p.wrap = Wrap{}
	p.release()
	p.l.step++
	p.prepared = nil
}

// StepFaces advances the lattice one time step under the conditions f.
// While every call passes the same, unchanged f and nothing else writes
// the lattice between steps, it equals f.Apply(l) followed by Step, bit
// for bit, on every interior cell's populations, every flag and wall
// velocity, and every halo cell a condition of f reads (an outlet's
// inner line runs into the halo of the axes beside it). The halo of the
// axes f wraps (f.Wrap) is otherwise left as it is: the even sweep reads
// across those axes (SweepRows), so no step copies their halo, and only
// the edge cells PeriodicEdges names are still filled, in f's order. f
// must be comparable (a pointer, like *boundary.Set).
//
// The halo for the step is normally already in place: the previous
// StepFaces filled it during its sweep. Each worker applies f to the next
// step's storage phase (a view of the lattice one step ahead) on every
// plane of its band as soon as the sweep has left the plane final, and
// after the barrier ApplyTail covers the planes no worker owned whole:
// the two halo planes, each band's first and last plane, and the y-face
// conditions, all in f's order. That is safe in place because in AA
// storage every population slot belongs to exactly one (cell, population)
// at each parity: the conditions write only halo cells' next-phase slots,
// which the running sweep never touches, and read interior slots that
// only the cell's own update writes. A row next to a wrapped y axis
// reaches the rows across it, which lie on the planes the tail covers.
//
// The prepared halo belongs to the lattice state the step left. StepFaces
// fills the halo whole first on its first call, after a plain Step, and
// whenever the step counter, f or f.Len() differs from what it prepared;
// that whole fill also copies the flags across the wraps, which the
// sweep's row classification reads. It cannot see anything else: a
// caller that writes the lattice or edits a condition of f in place
// between steps runs f.Apply(l) and a plain Step once, and StepFaces then
// starts from a whole fill again. Switching to another set g fills g's
// halo whole, but the halo cells g does not fill keep what f prepared for
// this step instead of what f.Apply left there a step earlier; a step
// that reads those cells then differs from g.Apply(l) followed by Step.
func (p *Pool) StepFaces(f Faces) {
	l := p.l
	t := time.Now()
	if f != p.prepared || f.Len() != p.preparedLen || l.step != p.preparedAt {
		f.Apply(l)
	}
	p.faces, p.wrap, p.next = f, f.Wrap(), l.Ahead()
	p.faceTime += time.Since(t)

	p.release()

	t = time.Now()
	f.ApplyTail(&p.next, p.tail)
	l.step++
	p.faces = nil
	p.prepared, p.preparedLen, p.preparedAt = f, f.Len(), l.step
	// The workers ran their planes side by side: the slowest one's share
	// is what the step's wall time holds of them.
	p.faceTime += time.Since(t) + slices.Max(p.planeTime)
	clear(p.planeTime)
}

// FaceTime is the time StepFaces has spent on conditions: whole fills,
// each step's slowest worker on its planes, and the tails.
func (p *Pool) FaceTime() time.Duration { return p.faceTime }

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
