// Package mpi is an in-process message-passing runtime that mirrors the
// subset of MPI used by SunwayLB: point-to-point send/receive (blocking and
// non-blocking), barriers, reductions, broadcast and gather, and a 2-D
// Cartesian communicator with the 8-neighbour topology of the paper's
// domain decomposition (§IV-C-1).
//
// Ranks execute as goroutines inside one OS process, which makes
// multi-rank runs deterministic, race-detectable and directly comparable
// with the serial solver — the functional-correctness half of the
// extreme-scale substitution (the performance half lives in
// internal/network and internal/scaling).
//
// The runtime also models failure (see failure.go): ranks can be marked
// dead, the whole world can be torn down, receives can carry deadlines,
// and a FaultHook can drop, duplicate or corrupt messages in transit. No
// blocking operation hangs forever once its peer is unreachable — it
// returns (or panics into the Run recovery with) a typed error instead,
// which is what the self-healing supervisor in internal/psolve builds on.
package mpi

import (
	"fmt"
	"sync"
	"time"

	"sunwaylb/internal/trace"
)

// Message is the payload of a point-to-point transfer: a float64 body
// (populations) and an optional byte sidecar (cell flags).
type Message struct {
	Data []float64
	Aux  []byte
	// flow carries the trace flow id linking this message's send event
	// to its receive event (0 when tracing is off).
	flow uint64
}

type chanKey struct{ src, dst, tag int }

// mailbox is one ordered (src, dst, tag) message stream. Sends never
// block (the queue is unbounded) and receives match in posting order,
// which is the MPI ordering guarantee the halo exchange relies on. In
// steady state a stream allocates nothing: the queue is a ring that only
// grows, and the waiter channel a receive drained is kept for the next.
type mailbox struct {
	mu      sync.Mutex
	queue   ring
	waiters []chan Message
	spare   chan Message // an empty, unregistered waiter channel (or nil)
}

// ring is a FIFO of messages over a circular buffer (never of length
// zero) that doubles when full and never shrinks.
type ring struct {
	buf     []Message
	head, n int
}

func (q *ring) grow() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]Message, 2*len(q.buf))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}

func (q *ring) push(m Message) {
	q.grow()
	q.buf[(q.head+q.n)%len(q.buf)] = m
	q.n++
}

// pushFront requeues m at the head.
func (q *ring) pushFront(m Message) {
	q.grow()
	q.head = (q.head + len(q.buf) - 1) % len(q.buf)
	q.buf[q.head] = m
	q.n++
}

func (q *ring) pop() (Message, bool) {
	if q.n == 0 {
		return Message{}, false
	}
	m := q.buf[q.head]
	q.buf[q.head] = Message{} // the ring must not keep the payload alive
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return m, true
}

// put delivers a message: to the oldest waiting receiver if any,
// otherwise onto the queue. Delivery happens under the mailbox lock
// (waiter channels are buffered, so the send cannot block), which lets
// cancel reason about whether a waiter has been handed a message.
func (mb *mailbox) put(m Message) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if len(mb.waiters) > 0 {
		w := mb.waiters[0]
		mb.waiters = append(mb.waiters[:0], mb.waiters[1:]...)
		w <- m
		return
	}
	mb.queue.push(m)
}

// get returns a channel that will yield the next message in stream order.
// A receiver that gives up (timeout, dead peer) must call cancel with the
// same channel so a later message is not swallowed by an abandoned waiter;
// either way it hands the drained channel back with release.
func (mb *mailbox) get() chan Message {
	mb.mu.Lock()
	ch := mb.spare
	mb.spare = nil
	if ch == nil {
		ch = make(chan Message, 1)
	}
	if m, ok := mb.queue.pop(); ok {
		mb.mu.Unlock()
		ch <- m
		return ch
	}
	mb.waiters = append(mb.waiters, ch)
	mb.mu.Unlock()
	return ch
}

// release keeps a waiter channel for the next get. The caller has taken
// its message or cancelled it, so the channel is empty and no sender can
// reach it.
func (mb *mailbox) release(ch chan Message) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.spare == nil {
		mb.spare = ch
	}
}

// tryGet pops the head of the queue without registering a waiter.
func (mb *mailbox) tryGet() (Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.queue.pop()
}

// cancel deregisters an abandoned waiter. If a message was already
// delivered into the channel, it is requeued at the head so stream order
// is preserved for the next receiver.
func (mb *mailbox) cancel(ch chan Message) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, w := range mb.waiters {
		if w == ch {
			mb.waiters = append(mb.waiters[:i], mb.waiters[i+1:]...)
			return
		}
	}
	select {
	case m := <-ch:
		mb.queue.pushFront(m)
	default:
	}
}

// World owns the communication state for a fixed number of ranks.
type World struct {
	size int

	mu    sync.Mutex
	boxes map[chanKey]*mailbox

	barrier struct {
		sync.Mutex
		cond  *sync.Cond
		count int
		gen   int
	}

	// Failure state (see failure.go).
	fmu           sync.Mutex
	down          bool
	cause         error         // first failure cause (nil while healthy)
	dead          map[int]error // rank → why unreachable (nil = clean exit)
	notify        chan struct{} // closed and replaced on every state change
	recvTimeout   time.Duration
	hook          FaultHook
	tracer        *trace.Tracer
	detector      *PhiDetector // nil = deadline-only failure detection
	containPanics bool         // bulkhead mode: rank panics become errors
}

// internal collective tags live in a reserved negative range so they never
// collide with user tags (which must be ≥ 0).
const (
	tagReduce = -1 - iota
	tagBcast
	tagGather
	tagAllgather
)

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", size)
	}
	w := &World{
		size:   size,
		boxes:  make(map[chanKey]*mailbox),
		dead:   make(map[int]error),
		notify: make(chan struct{}),
	}
	w.barrier.cond = sync.NewCond(&w.barrier.Mutex)
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// box returns (lazily creating) the mailbox for a (src, dst, tag) triple.
func (w *World) box(src, dst, tag int) *mailbox {
	k := chanKey{src, dst, tag}
	w.mu.Lock()
	defer w.mu.Unlock()
	mb, ok := w.boxes[k]
	if !ok {
		// Sized up front, so which of sender and receiver comes first
		// never decides when a stream allocates: one receiver waits at a
		// time (a burst of Irecvs aside), and a few messages may queue.
		mb = &mailbox{queue: ring{buf: make([]Message, 4)}, waiters: make([]chan Message, 0, 1)}
		w.boxes[k] = mb
	}
	return mb
}

// deliver hands a message to the transport, consulting the fault hook for
// user messages (collectives on negative tags are modelled as reliable).
func (w *World) deliver(src, dst, tag int, m Message) {
	copies := 1
	if h := w.faultHook(); h != nil && tag >= 0 {
		copies = h.OnSend(src, dst, tag, m.Data, m.Aux)
	}
	if copies < 1 {
		return
	}
	mb := w.box(src, dst, tag)
	// A duplicate is a distinct copy, made before the original is handed
	// over: the receiver may recycle or overwrite what it gets, and this
	// is the one place that knows two deliveries share a payload. The
	// original goes first, so the late delivery a receiver discards as
	// stale is the copy, never a sender's buffer it may be refilling.
	dups := make([]Message, copies-1)
	for i := range dups {
		dups[i] = Message{Data: append([]float64(nil), m.Data...), Aux: append([]byte(nil), m.Aux...), flow: m.flow}
	}
	mb.put(m)
	for _, d := range dups {
		mb.put(d)
	}
}

// SetTracer installs a rank-level tracer (nil removes it): blocking
// receives, barriers and collectives become spans, point-to-point
// messages become cross-rank flow events and rank deaths become instants
// on the "mpi" track. Install before RunWorld starts ranks.
func (w *World) SetTracer(t *trace.Tracer) {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	w.tracer = t
}

// Tracer returns the installed tracer (nil when tracing is off).
func (w *World) Tracer() *trace.Tracer {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return w.tracer
}

// Comm is one rank's handle on the world.
type Comm struct {
	world *World
	rank  int
	// tr is this rank's trace handle; nil (a no-op recorder) when the
	// world has no tracer. Bound at Comm construction so the hot paths
	// never take the world's failure lock to trace.
	tr *trace.RankTracer
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// World returns the underlying world (for failure control).
func (c *Comm) World() *World { return c.world }

// Trace returns this rank's trace handle (nil, a no-op recorder, when
// the world has no tracer). Instrumented layers above mpi (psolve, the
// supervisor) share the same per-rank timeline through it.
func (c *Comm) Trace() *trace.RankTracer { return c.tr }

// validate panics on out-of-range peers or negative user tags; these are
// programming errors, not runtime conditions.
func (c *Comm) validate(peer, tag int) {
	if peer < 0 || peer >= c.world.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", peer, c.world.size))
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: user tag %d must be non-negative", tag))
	}
}

// Send delivers a message to dst. The transport buffers without bound, so
// Send never blocks (MPI buffered-send semantics).
func (c *Comm) Send(dst, tag int, m Message) {
	c.validate(dst, tag)
	if c.tr != nil {
		m.flow = c.tr.NextFlow()
		c.tr.FlowOut(trace.Wall, trace.TrackMPI, "msg", c.tr.Now(), m.flow, float64(dst))
	}
	c.world.deliver(c.rank, dst, tag, m)
}

// Recv blocks until a message with the given source and tag arrives.
// Receives on one (src, tag) stream complete in message order. If the
// peer dies, exits, the world is torn down, or the world receive deadline
// expires, Recv aborts the calling rank with a typed error that Run and
// RunWorld convert into the rank's error return — it never hangs forever.
// Use RecvE for an explicit error return.
func (c *Comm) Recv(src, tag int) Message {
	m, err := c.RecvE(src, tag)
	if err != nil {
		panic(rankPanic{err})
	}
	return m
}

// RecvE is Recv with an explicit error: ErrRankDead when the source rank
// died or exited with no more queued messages, ErrWorldDown after
// teardown, ErrTimeout past the world receive deadline.
func (c *Comm) RecvE(src, tag int) (Message, error) {
	c.validate(src, tag)
	return c.recvTraced(src, tag, c.world.timeout())
}

// RecvTimeout is RecvE with an explicit deadline overriding the world
// default (0 = wait forever, subject to failure detection).
func (c *Comm) RecvTimeout(src, tag int, d time.Duration) (Message, error) {
	c.validate(src, tag)
	return c.recvTraced(src, tag, d)
}

// recvTraced wraps the blocking receive in a trace span plus the flow
// terminator connecting the matched send's arrow.
func (c *Comm) recvTraced(src, tag int, timeout time.Duration) (Message, error) {
	if c.tr == nil {
		return c.recvAny(src, tag, timeout)
	}
	c.tr.Begin(trace.Wall, trace.TrackMPI, "recv", c.tr.Now())
	m, err := c.recvAny(src, tag, timeout)
	now := c.tr.Now()
	if err == nil && m.flow != 0 {
		c.tr.FlowIn(trace.Wall, trace.TrackMPI, "msg", now, m.flow, float64(src))
	}
	if err != nil {
		c.tr.Instant(trace.Wall, trace.TrackMPI, "recv-failed", now)
	}
	c.tr.End(trace.Wall, trace.TrackMPI, now)
	return m, err
}

// recvInternal receives on a reserved collective tag, aborting the rank
// on failure like Recv.
func (c *Comm) recvInternal(src, tag int) Message {
	m, err := c.recvAny(src, tag, c.world.timeout())
	if err != nil {
		panic(rankPanic{err})
	}
	return m
}

// Request represents an outstanding non-blocking operation.
type Request struct {
	done chan struct{}
	msg  Message
	err  error
}

// Wait blocks until the operation completes; for receives it returns the
// message. A failed receive aborts the rank (see Recv); use WaitE for an
// explicit error.
func (r *Request) Wait() Message {
	<-r.done
	if r.err != nil {
		panic(rankPanic{r.err})
	}
	return r.msg
}

// WaitE blocks until the operation completes and returns its outcome.
func (r *Request) WaitE() (Message, error) {
	<-r.done
	return r.msg, r.err
}

// Isend starts a non-blocking send. The returned request completes when
// the message has been handed to the transport (buffered), matching MPI's
// completion-not-delivery semantics; with an unbounded transport that is
// immediately.
func (c *Comm) Isend(dst, tag int, m Message) *Request {
	c.validate(dst, tag)
	if c.tr != nil {
		m.flow = c.tr.NextFlow()
		c.tr.FlowOut(trace.Wall, trace.TrackMPI, "msg", c.tr.Now(), m.flow, float64(dst))
	}
	r := &Request{done: make(chan struct{})}
	c.world.deliver(c.rank, dst, tag, m)
	close(r.done)
	return r
}

// Irecv starts a non-blocking receive. Requests posted on the same
// (src, tag) stream match arriving messages in posting order. The
// receiving goroutine terminates (with an error recorded on the request)
// when the peer becomes unreachable, so failure paths leak no goroutines.
func (c *Comm) Irecv(src, tag int) *Request {
	c.validate(src, tag)
	r := &Request{done: make(chan struct{})}
	mb := c.world.box(src, c.rank, tag)
	ch := mb.get() // register now: waiters match in posting order
	timeout := c.world.timeout()
	go func() {
		r.msg, r.err = c.recvOn(mb, src, tag, ch, timeout)
		// The helper goroutine records only instant-class events (flow
		// terminators), never spans, so the rank's span timeline stays
		// single-writer and well nested.
		if c.tr != nil && r.err == nil && r.msg.flow != 0 {
			c.tr.FlowIn(trace.Wall, trace.TrackMPI, "msg", c.tr.Now(), r.msg.flow, float64(src))
		}
		close(r.done)
	}()
	return r
}

// Barrier blocks until every rank has entered it, aborting the rank if
// the world fails or a rank becomes unreachable (a barrier with a dead
// member can never complete). Use BarrierE for an explicit error.
func (c *Comm) Barrier() {
	if err := c.BarrierE(); err != nil {
		panic(rankPanic{err})
	}
}

// BarrierE is Barrier with an explicit error return.
func (c *Comm) BarrierE() error {
	defer c.tr.Scope(trace.TrackMPI, "barrier")()
	w := c.world
	b := &w.barrier
	b.Lock()
	gen := b.gen
	b.count++
	if b.count == w.size {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.Unlock()
		return nil
	}
	for gen == b.gen {
		if err := w.unreachableErr(); err != nil {
			b.count--
			b.Unlock()
			return fmt.Errorf("mpi: barrier cannot complete: %w", err)
		}
		b.cond.Wait()
	}
	b.Unlock()
	return nil
}

// AllreduceSum returns the sum of v over all ranks, on every rank.
func (c *Comm) AllreduceSum(v float64) float64 {
	return c.allreduce(v, func(a, b float64) float64 { return a + b })
}

func (c *Comm) allreduce(v float64, op func(a, b float64) float64) float64 {
	defer c.tr.Scope(trace.TrackMPI, "allreduce")()
	w := c.world
	if w.size == 1 {
		return v
	}
	if c.rank == 0 {
		acc := v
		for r := 1; r < w.size; r++ {
			m := c.recvInternal(r, tagReduce)
			acc = op(acc, m.Data[0])
		}
		for r := 1; r < w.size; r++ {
			w.deliver(0, r, tagBcast, Message{Data: []float64{acc}})
		}
		return acc
	}
	w.deliver(c.rank, 0, tagReduce, Message{Data: []float64{v}})
	m := c.recvInternal(0, tagBcast)
	return m.Data[0]
}

// Gather collects one message from every rank at root; non-root ranks get
// nil. The result is indexed by rank.
func (c *Comm) Gather(root int, m Message) []Message {
	defer c.tr.Scope(trace.TrackMPI, "gather")()
	w := c.world
	if c.rank == root {
		out := make([]Message, w.size)
		out[root] = m
		for r := 0; r < w.size; r++ {
			if r != root {
				out[r] = c.recvInternal(r, tagGather)
			}
		}
		return out
	}
	w.deliver(c.rank, root, tagGather, m)
	return nil
}

// Allgather collects one message from every rank on every rank.
func (c *Comm) Allgather(m Message) []Message {
	defer c.tr.Scope(trace.TrackMPI, "allgather")()
	w := c.world
	out := make([]Message, w.size)
	out[c.rank] = m
	for r := 0; r < w.size; r++ {
		if r == c.rank {
			continue
		}
		w.deliver(c.rank, r, tagAllgather, m)
	}
	for r := 0; r < w.size; r++ {
		if r == c.rank {
			continue
		}
		out[r] = c.recvInternal(r, tagAllgather)
	}
	return out
}

// Run spawns size ranks executing body concurrently and waits for all of
// them. The first non-nil error (by rank order) is returned.
func Run(size int, body func(c *Comm) error) error {
	w, err := NewWorld(size)
	if err != nil {
		return err
	}
	return RunWorld(w, body)
}

// RunWorld executes body on every rank of an existing world (letting the
// caller install fault hooks or receive deadlines first). A rank that
// returns an error — or whose blocking operation aborts on a failure —
// is marked dead so peers waiting on it unblock with ErrRankDead instead
// of deadlocking; a rank that returns nil is marked exited, with the same
// effect once its queued messages are drained. The first non-nil error
// (by rank order) is returned.
func RunWorld(w *World, body func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if rp, ok := p.(rankPanic); ok {
						errs[rank] = rp.err
					} else if w.panicsContained() {
						// Bulkhead mode: a tenant's bug kills its rank,
						// not the process hosting every tenant.
						errs[rank] = fmt.Errorf("mpi: rank %d: %v: %w", rank, p, ErrRankPanic)
					} else {
						panic(p) // genuine bug: crash loudly as before
					}
				}
				w.markExit(rank, errs[rank])
			}()
			errs[rank] = body(&Comm{world: w, rank: rank, tr: w.Tracer().ForRank(rank)})
		}(r)
	}
	wg.Wait()
	for r, e := range errs {
		if e != nil {
			return fmt.Errorf("mpi: rank %d: %w", r, e)
		}
	}
	return nil
}
