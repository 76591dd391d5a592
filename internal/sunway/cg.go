package sunway

import (
	"fmt"
	"sync"
)

// Counters aggregates the activity of a core group.
type Counters struct {
	// DMABytes is the total traffic between main memory and LDM.
	DMABytes int64
	// DMADescriptors counts individual DMA transfers (startup charges).
	DMADescriptors int64
	// Flops counts floating-point operations charged via Compute.
	Flops int64
	// InterCPEBytes counts register-communication/RMA traffic.
	InterCPEBytes int64
	// InterCPETransfers counts individual transfers.
	InterCPETransfers int64
	// GlobalLoadBytes counts slow direct global accesses.
	GlobalLoadBytes int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.DMABytes += o.DMABytes
	c.DMADescriptors += o.DMADescriptors
	c.Flops += o.Flops
	c.InterCPEBytes += o.InterCPEBytes
	c.InterCPETransfers += o.InterCPETransfers
	c.GlobalLoadBytes += o.GlobalLoadBytes
}

// CoreGroup is a functional simulator of one CG: an 8×8 (by default) CPE
// mesh with per-CPE LDM, a DMA engine and inter-CPE communication.
type CoreGroup struct {
	Spec ChipSpec

	cpes []*CPE

	// mailboxes[src][dst] queues inter-CPE messages.
	mail map[[2]int]*cpeMailbox

	mailMu sync.Mutex

	barrier struct {
		sync.Mutex
		cond     *sync.Cond
		count    int
		gen      int
		maxT     float64
		releaseT float64
	}

	// TotalTime accumulates the simulated elapsed time of all Run calls.
	TotalTime float64
	// Counters accumulates activity over all Run calls.
	Counters Counters

	abort struct {
		sync.Mutex
		val any  // first kernel panic value, nil while healthy
		cpe int  // CPE the first panic happened on
		set bool // distinguishes panic(nil) from no panic
	}
}

// aborted reports whether a kernel panic has been recorded for the
// in-flight Run, and on which CPE.
func (cg *CoreGroup) aborted() (int, bool) {
	cg.abort.Lock()
	defer cg.abort.Unlock()
	return cg.abort.cpe, cg.abort.set
}

// cpeAborted is the sentinel panic that unwinds CPEs parked at a barrier
// after another CPE has panicked. It is never reported to the caller —
// the original panic value is.
type cpeAborted struct{ cpe int }

func (a cpeAborted) Error() string {
	return fmt.Sprintf("sunway: CPE kernel aborted (another CPE panicked; first failure on CPE %d)", a.cpe)
}

type cpeMailbox struct {
	mu      sync.Mutex
	queue   [][]float64
	waiters []chan []float64
}

func (mb *cpeMailbox) put(d []float64) {
	mb.mu.Lock()
	if len(mb.waiters) > 0 {
		w := mb.waiters[0]
		mb.waiters = mb.waiters[1:]
		mb.mu.Unlock()
		w <- d
		return
	}
	mb.queue = append(mb.queue, d)
	mb.mu.Unlock()
}

func (mb *cpeMailbox) get() []float64 {
	mb.mu.Lock()
	if len(mb.queue) > 0 {
		d := mb.queue[0]
		mb.queue = mb.queue[1:]
		mb.mu.Unlock()
		return d
	}
	ch := make(chan []float64, 1)
	mb.waiters = append(mb.waiters, ch)
	mb.mu.Unlock()
	return <-ch
}

// NewCoreGroup builds a core group simulator for the given chip model.
func NewCoreGroup(spec ChipSpec) *CoreGroup {
	cg := &CoreGroup{
		Spec: spec,
		mail: make(map[[2]int]*cpeMailbox),
	}
	cg.barrier.cond = sync.NewCond(&cg.barrier.Mutex)
	cg.cpes = make([]*CPE, spec.CPEs)
	for i := range cg.cpes {
		cg.cpes[i] = &CPE{cg: cg, ID: i, Row: i / 8, Col: i % 8}
	}
	return cg
}

func (cg *CoreGroup) mailbox(src, dst int) *cpeMailbox {
	k := [2]int{src, dst}
	cg.mailMu.Lock()
	defer cg.mailMu.Unlock()
	mb, ok := cg.mail[k]
	if !ok {
		mb = &cpeMailbox{}
		cg.mail[k] = mb
	}
	return mb
}

// Run executes the kernel on every CPE concurrently (the Athread
// spawn/join pattern) and returns the simulated elapsed time: the maximum
// CPE clock. LDM allocations and clocks are reset at entry.
//
// A panic inside the kernel on any CPE is recovered on that CPE's
// goroutine, recorded, and re-raised on the goroutine that called Run once
// every CPE has unwound — the analogue of the whole core group faulting
// when one CPE traps. CPEs parked at a Barrier when the fault happens are
// released with an internal abort panic so Run cannot deadlock; the value
// re-raised is always the first kernel panic, not the abort sentinel.
func (cg *CoreGroup) Run(kernel func(p *CPE)) float64 {
	cg.barrier.Lock()
	cg.barrier.count = 0
	cg.barrier.maxT = 0
	cg.barrier.releaseT = 0
	cg.barrier.Unlock()
	cg.abort.Lock()
	cg.abort.val = nil
	cg.abort.set = false
	cg.abort.Unlock()
	var wg sync.WaitGroup
	for _, p := range cg.cpes {
		p.clock = 0
		p.dmaBusyUntil = 0
		p.ldmUsed = 0
		p.counters = Counters{}
		wg.Add(1)
		go func(p *CPE) {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if _, sentinel := r.(cpeAborted); sentinel {
					return // secondary unwind, not the root cause
				}
				cg.abort.Lock()
				if !cg.abort.set {
					cg.abort.set = true
					cg.abort.val = r
					cg.abort.cpe = p.ID
				}
				cg.abort.Unlock()
				// Release any CPEs waiting at the barrier so the
				// group can unwind instead of deadlocking.
				cg.barrier.Lock()
				cg.barrier.gen++
				cg.barrier.cond.Broadcast()
				cg.barrier.Unlock()
			}()
			kernel(p)
		}(p)
	}
	wg.Wait()
	cg.abort.Lock()
	failed, val := cg.abort.set, cg.abort.val
	cg.abort.Unlock()
	if failed {
		panic(val)
	}
	elapsed := 0.0
	for _, p := range cg.cpes {
		if p.clock > elapsed {
			elapsed = p.clock
		}
		cg.Counters.Add(p.counters)
	}
	cg.TotalTime += elapsed
	return elapsed
}

// CPE is one computing processing element inside a core group.
type CPE struct {
	cg *CoreGroup
	// ID is the CPE index (0..CPEs-1); Row and Col are its mesh
	// coordinates.
	ID, Row, Col int

	clock float64
	// dmaBusyUntil serialises the CPE's DMA engine: transfers queue
	// behind one another even when issued asynchronously, so bandwidth
	// is never double-counted.
	dmaBusyUntil float64
	ldmUsed      int
	counters     Counters
}

// NumCPEs returns the number of CPEs in this CPE's core group.
func (p *CPE) NumCPEs() int { return p.cg.Spec.CPEs }

// Clock returns the CPE's current simulated time within the running
// kernel.
func (p *CPE) Clock() float64 { return p.clock }

// LDMUsed returns the bytes currently allocated in this CPE's LDM.
func (p *CPE) LDMUsed() int { return p.ldmUsed }

// AllocFloat64 reserves an LDM buffer of n float64s. It returns an error
// if the allocation would exceed the chip's LDM capacity — kernels that do
// not fit the real chip do not fit here.
func (p *CPE) AllocFloat64(n int) ([]float64, error) {
	bytes := n * 8
	if p.ldmUsed+bytes > p.cg.Spec.LDMBytes {
		return nil, fmt.Errorf("sunway: CPE %d LDM overflow: %d + %d > %d bytes",
			p.ID, p.ldmUsed, bytes, p.cg.Spec.LDMBytes)
	}
	p.ldmUsed += bytes
	return make([]float64, n), nil
}

// MustAllocFloat64 is AllocFloat64 that panics on overflow; for kernels
// whose footprint is statically known to fit.
func (p *CPE) MustAllocFloat64(n int) []float64 {
	b, err := p.AllocFloat64(n)
	if err != nil {
		panic(err)
	}
	return b
}

// FreeFloat64 returns an LDM buffer's bytes to the allocator (buffers are
// not tracked individually; the caller frees what it allocated).
func (p *CPE) FreeFloat64(n int) {
	p.ldmUsed -= n * 8
	if p.ldmUsed < 0 {
		p.ldmUsed = 0
	}
}

// dmaShare is the per-CPE share of the CG DMA bandwidth under the
// all-CPEs-streaming assumption the LBM kernels satisfy.
func (p *CPE) dmaShare() float64 {
	return p.cg.Spec.DMABandwidth / float64(p.cg.Spec.CPEs)
}

// dmaCost returns the simulated duration of a DMA transfer consisting of
// descriptors contiguous runs totalling bytes.
func (p *CPE) dmaCost(bytes, descriptors int) float64 {
	return (float64(bytes) + float64(descriptors)*p.cg.Spec.DMAStartupBytes) / p.dmaShare()
}

// dmaSchedule queues a transfer of the given duration on the CPE's DMA
// engine starting no earlier than the current clock, and returns its
// completion time.
func (p *CPE) dmaSchedule(cost float64) float64 {
	start := p.clock
	if p.dmaBusyUntil > start {
		start = p.dmaBusyUntil
	}
	p.dmaBusyUntil = start + cost
	return p.dmaBusyUntil
}

// DMAGet copies len(dst) values from main memory (src) into the LDM buffer
// dst as one contiguous descriptor and blocks until it completes.
func (p *CPE) DMAGet(dst, src []float64) {
	copy(dst, src)
	n := len(dst) * 8
	p.clock = p.dmaSchedule(p.dmaCost(n, 1))
	p.counters.DMABytes += int64(n)
	p.counters.DMADescriptors++
}

// DMAPut copies len(src) values from the LDM buffer src into main memory
// (dst) as one contiguous descriptor and blocks until it completes. Stores
// pay the write-allocate factor.
func (p *CPE) DMAPut(dst, src []float64) {
	copy(dst, src)
	n := len(src) * 8
	p.clock = p.dmaSchedule(p.putCost(n, 1))
	p.counters.DMABytes += int64(n)
	p.counters.DMADescriptors++
}

// putCost is the store cost of descriptors contiguous runs totalling
// bytes, including write-allocate traffic.
func (p *CPE) putCost(bytes, descriptors int) float64 {
	wa := p.cg.Spec.StoreWriteAllocate
	if wa <= 0 {
		wa = 1
	}
	return (float64(bytes)*wa + float64(descriptors)*p.cg.Spec.DMAStartupBytes) / p.dmaShare()
}

// stridedRuns validates the geometry of a strided transfer between a
// contiguous LDM buffer of ldmLen values and a main-memory buffer of
// memLen values, and returns the number of runs (= DMA descriptors).
func (p *CPE) stridedRuns(ldmLen, memLen, runLen, stride int, op string) int {
	if runLen <= 0 || stride < runLen || ldmLen%runLen != 0 {
		panic(fmt.Sprintf("sunway: CPE %d strided %s: invalid geometry runLen=%d stride=%d ldm=%d",
			p.ID, op, runLen, stride, ldmLen))
	}
	runs := ldmLen / runLen
	if runs > 0 && (runs-1)*stride+runLen > memLen {
		panic(fmt.Sprintf("sunway: CPE %d strided %s overruns main memory: %d runs of %d at stride %d > %d values",
			p.ID, op, runs, runLen, stride, memLen))
	}
	return runs
}

// DMAGetStrided gathers runs of runLen float64s from main memory into the
// contiguous LDM buffer dst: run r starts at src[r*stride]. The hardware
// issues one descriptor per run, so a strided gather of the same bytes as
// a contiguous DMAGet pays len(dst)/runLen startup charges instead of one
// — the accounting behind the paper's preference for layouts that keep
// the innermost (z) dimension contiguous (§IV-B).
func (p *CPE) DMAGetStrided(dst, src []float64, runLen, stride int) {
	runs := p.stridedRuns(len(dst), len(src), runLen, stride, "get")
	for r := 0; r < runs; r++ {
		copy(dst[r*runLen:(r+1)*runLen], src[r*stride:r*stride+runLen])
	}
	n := len(dst) * 8
	p.clock = p.dmaSchedule(p.dmaCost(n, runs))
	p.counters.DMABytes += int64(n)
	p.counters.DMADescriptors += int64(runs)
}

// DMAPutStrided scatters the contiguous LDM buffer src into main memory:
// run r of runLen values lands at dst[r*stride]. Like DMAGetStrided each
// run is a separate descriptor, and stores additionally pay the
// write-allocate factor.
func (p *CPE) DMAPutStrided(dst, src []float64, runLen, stride int) {
	runs := p.stridedRuns(len(src), len(dst), runLen, stride, "put")
	for r := 0; r < runs; r++ {
		copy(dst[r*stride:r*stride+runLen], src[r*runLen:(r+1)*runLen])
	}
	n := len(src) * 8
	p.clock = p.dmaSchedule(p.putCost(n, runs))
	p.counters.DMABytes += int64(n)
	p.counters.DMADescriptors += int64(runs)
}

// DMAHandle represents an asynchronous DMA in flight.
type DMAHandle struct {
	completeAt float64
}

// DMAGetAsync starts an asynchronous get: the transfer queues on the DMA
// engine while the CPE clock keeps running (dual-pipeline overlap,
// Fig. 10(2)). Call Wait before using dst.
func (p *CPE) DMAGetAsync(dst, src []float64) DMAHandle {
	copy(dst, src)
	n := len(dst) * 8
	p.counters.DMABytes += int64(n)
	p.counters.DMADescriptors++
	return DMAHandle{completeAt: p.dmaSchedule(p.dmaCost(n, 1))}
}

// DMAPutAsync starts an asynchronous put.
func (p *CPE) DMAPutAsync(dst, src []float64) DMAHandle {
	copy(dst, src)
	n := len(src) * 8
	p.counters.DMABytes += int64(n)
	p.counters.DMADescriptors++
	return DMAHandle{completeAt: p.dmaSchedule(p.putCost(n, 1))}
}

// Wait blocks the CPE until the DMA has completed: the clock advances to
// the completion time if it has not already passed it.
func (p *CPE) Wait(h DMAHandle) {
	if h.completeAt > p.clock {
		p.clock = h.completeAt
	}
}

// GlobalLoad models the slow direct global-memory access path that
// bypasses LDM (the anti-pattern the REG-LDM-MEM hierarchy exists to
// avoid); used by the optimization-ablation baselines.
func (p *CPE) GlobalLoad(dst, src []float64) {
	copy(dst, src)
	n := len(dst) * 8
	p.clock += float64(n) / p.cg.Spec.GlobalLoadBandwidth
	p.counters.GlobalLoadBytes += int64(n)
}

// Compute charges flops of floating-point work at the given efficiency
// (fraction of the CPE's peak; e.g. unvectorised scalar code ≈ 1/8 on a
// 256-bit machine, hand-tuned assembly ≈ 0.5+).
func (p *CPE) Compute(flops float64, efficiency float64) {
	if efficiency <= 0 {
		efficiency = 1
	}
	p.clock += flops / (p.cg.Spec.CPEPeakFlops * efficiency)
	p.counters.Flops += int64(flops)
}

// Send transfers data to another CPE over the register-communication bus
// (SW26010) or RMA (SW26010-Pro), charging latency plus bandwidth on the
// sender; the receiver pays on Recv. The InterCPEBandwidth constant is an
// effective per-link figure that already accounts for average sharing of
// the 8 row/8 column buses — a causally correct per-bus contention model
// would need a globally ordered event-driven simulation, which the
// deterministic per-CPE clocks deliberately avoid (see DESIGN.md §7).
func (p *CPE) Send(dst int, data []float64) {
	if dst < 0 || dst >= p.cg.Spec.CPEs {
		panic(fmt.Sprintf("sunway: CPE %d send to invalid CPE %d", p.ID, dst))
	}
	n := len(data) * 8
	p.clock += p.cg.Spec.InterCPELatency + float64(n)/p.cg.Spec.InterCPEBandwidth
	p.counters.InterCPEBytes += int64(n)
	p.counters.InterCPETransfers++
	buf := append([]float64(nil), data...)
	p.cg.mailbox(p.ID, dst).put(buf)
}

// Recv receives the next transfer from src (FIFO per src→dst pair),
// charging the receive cost.
func (p *CPE) Recv(src int) []float64 {
	if src < 0 || src >= p.cg.Spec.CPEs {
		panic(fmt.Sprintf("sunway: CPE %d recv from invalid CPE %d", p.ID, src))
	}
	d := p.cg.mailbox(src, p.ID).get()
	p.clock += p.cg.Spec.InterCPELatency + float64(len(d)*8)/p.cg.Spec.InterCPEBandwidth
	return d
}

// RowBroadcast sends data to every CPE in the same mesh row (an RMA
// feature of SW26010-Pro; register communication on SW26010 supports row
// broadcast too, §III-B).
func (p *CPE) RowBroadcast(data []float64) {
	for c := 0; c < 8; c++ {
		dst := p.Row*8 + c
		if dst == p.ID || dst >= p.cg.Spec.CPEs {
			continue
		}
		p.Send(dst, data)
	}
}

// Barrier synchronises all CPEs of the core group and aligns their clocks
// to the latest arrival (which is what a hardware barrier costs). If
// another CPE's kernel has panicked, Barrier unwinds instead of waiting
// for an arrival that will never come.
func (p *CPE) Barrier() {
	b := &p.cg.barrier
	b.Lock()
	if cpe, dead := p.cg.aborted(); dead {
		b.Unlock()
		panic(cpeAborted{cpe: cpe})
	}
	if p.clock > b.maxT {
		b.maxT = p.clock
	}
	gen := b.gen
	b.count++
	if b.count == p.cg.Spec.CPEs {
		// Last arrival releases the generation and publishes its time.
		b.count = 0
		b.releaseT = b.maxT
		b.maxT = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
		if cpe, dead := p.cg.aborted(); dead {
			b.Unlock()
			panic(cpeAborted{cpe: cpe})
		}
	}
	p.clock = b.releaseT
	b.Unlock()
}
