package mpi

// Failure model. At the paper's target scale (160 000 processes) rank
// loss and link faults are routine; the original runtime modelled a
// perfect machine, so any failure turned into a deadlocked goroutine.
// This file adds the failure half of the runtime: ranks can be marked
// dead (crash) or exited (clean return), the whole world can be torn
// down, receives can carry deadlines, and a FaultHook lets
// internal/fault drop, duplicate or bit-flip user messages in transit.
// Every blocking operation observes this state and returns a typed error
// instead of hanging.

import (
	"errors"
	"fmt"
	"time"

	"sunwaylb/internal/trace"
)

// Typed failure errors. Callers test with errors.Is.
var (
	// ErrRankDead reports that the peer rank crashed or exited and has
	// no more queued messages.
	ErrRankDead = errors.New("mpi: peer rank unreachable")
	// ErrTimeout reports that a receive exceeded its deadline.
	ErrTimeout = errors.New("mpi: receive timed out")
	// ErrWorldDown reports that the world has been torn down.
	ErrWorldDown = errors.New("mpi: world torn down")
	// ErrSuspect reports that the phi-accrual detector declared the peer
	// dead: its heartbeat silence crossed the suspicion threshold. It
	// wraps ErrRankDead, so existing errors.Is(err, ErrRankDead) checks
	// treat a suspected peer like a confirmed death.
	ErrSuspect = fmt.Errorf("peer suspected dead by phi-accrual detector: %w", ErrRankDead)
	// ErrRankPanic reports that a rank's body panicked with a genuine bug
	// (not a typed communication abort) inside a world running with
	// panic containment — the bulkhead mode of a multi-tenant service,
	// where one tenant's crash must become that rank's error instead of
	// taking down the whole process.
	ErrRankPanic = errors.New("mpi: rank body panicked")
)

// SetContainPanics selects how RunWorld treats a non-communication panic
// in a rank body. Off (the default), such a panic is a genuine bug and
// crashes the process loudly. On, it is recovered into the rank's error
// return wrapping ErrRankPanic, so a supervisor (and the service layer
// above it) can fail just that run. Install before RunWorld starts ranks.
func (w *World) SetContainPanics(on bool) {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	w.containPanics = on
}

func (w *World) panicsContained() bool {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return w.containPanics
}

// rankPanic aborts a rank out of deeply nested exchange code; RunWorld
// recovers it into the rank's error return. This mirrors how a real MPI
// implementation aborts a process on a fatal communication error.
type rankPanic struct{ err error }

// FaultHook intercepts user-tag messages on their way into the
// transport. OnSend returns how many copies to deliver (0 = drop,
// 1 = normal, 2 = duplicate) and may mutate data/aux in place to model
// silent data corruption. Implementations must be safe for concurrent
// use. internal/fault.Injector implements this structurally.
type FaultHook interface {
	OnSend(src, dst, tag int, data []float64, aux []byte) int
}

// SetFaultHook installs a message-fault interceptor (nil removes it).
// Install before RunWorld starts ranks.
func (w *World) SetFaultHook(h FaultHook) {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	w.hook = h
}

func (w *World) faultHook() FaultHook {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return w.hook
}

// SetRecvTimeout sets the default deadline applied to every receive
// (0 = none). With faults that drop messages a deadline is what turns a
// silent loss into a detectable ErrTimeout.
func (w *World) SetRecvTimeout(d time.Duration) {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	w.recvTimeout = d
}

func (w *World) timeout() time.Duration {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return w.recvTimeout
}

// MarkDead records that a rank crashed. Receivers blocked on it wake
// with ErrRankDead (after draining messages it sent before dying), and
// barriers in progress abort. The first non-nil cause is retained as the
// world's failure cause.
func (w *World) MarkDead(rank int, cause error) {
	w.fmu.Lock()
	first := false
	if _, seen := w.dead[rank]; !seen {
		w.dead[rank] = cause
		first = true
	}
	if w.cause == nil && cause != nil {
		w.cause = cause
	}
	w.bumpLocked()
	w.fmu.Unlock()
	if first {
		w.traceDead(rank) // after fmu release: Tracer() re-takes fmu
	}
	w.wakeBarrier()
}

// traceDead records a dead-rank instant on the rank's own timeline.
// Must be called without fmu held.
func (w *World) traceDead(rank int) {
	if t := w.Tracer(); t != nil {
		tr := t.ForRank(rank)
		tr.Instant(trace.Wall, trace.TrackMPI, "rank-dead", tr.Now())
	}
}

// markExit records a rank leaving the world: dead when err != nil,
// cleanly exited otherwise. Either way the rank is unreachable for
// future receives once its queue drains.
func (w *World) markExit(rank int, err error) {
	w.fmu.Lock()
	first := false
	if _, seen := w.dead[rank]; !seen {
		w.dead[rank] = err
		first = true
		if w.cause == nil && err != nil {
			w.cause = err
		}
		w.bumpLocked()
	}
	w.fmu.Unlock()
	if first && err != nil {
		w.traceDead(rank)
	}
	w.wakeBarrier()
}

// Fail tears down the whole world: every blocked operation on every rank
// aborts with ErrWorldDown. Used by the supervisor when rank 0 detects a
// globally unusable state (e.g. a diverged health check).
func (w *World) Fail(cause error) {
	w.fmu.Lock()
	if !w.down {
		w.down = true
		if w.cause == nil && cause != nil {
			w.cause = cause
		}
		w.bumpLocked()
	}
	w.fmu.Unlock()
	w.wakeBarrier()
}

// FailureCause returns the first recorded failure cause (nil while the
// world is healthy). The supervisor uses it to classify a failed run
// even when the first rank-ordered error is a secondary ErrRankDead.
func (w *World) FailureCause() error {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return w.cause
}

// DeadRanks returns a copy of the per-rank death ledger: every rank
// that crashed or exited, with its cause (nil = clean exit). The
// supervisor uses it to separate root failures (a rank that crashed on
// its own error) from collateral ones (ranks that died waiting on it),
// which is what decides hot-swap versus disk rollback.
func (w *World) DeadRanks() map[int]error {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	out := make(map[int]error, len(w.dead))
	for r, e := range w.dead {
		out[r] = e
	}
	return out
}

// bumpLocked signals a failure-state change to every watcher. Callers
// hold fmu. Each channel returned by failureSignal is closed by the
// first state change after it was obtained.
func (w *World) bumpLocked() {
	close(w.notify)
	w.notify = make(chan struct{})
}

func (w *World) failureSignal() <-chan struct{} {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return w.notify
}

// wakeBarrier nudges barrier waiters to re-check reachability. The
// barrier mutex is held across the broadcast so a waiter between its
// check and cond.Wait cannot miss the wakeup.
func (w *World) wakeBarrier() {
	w.barrier.Lock()
	w.barrier.cond.Broadcast()
	w.barrier.Unlock()
}

// peerErr reports why a source rank is unreachable, or nil.
func (w *World) peerErr(src int) error {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if w.down {
		if w.cause != nil {
			return fmt.Errorf("%w (cause: %v)", ErrWorldDown, w.cause)
		}
		return ErrWorldDown
	}
	if cause, seen := w.dead[src]; seen {
		if cause != nil {
			return fmt.Errorf("rank %d died (%v): %w", src, cause, ErrRankDead)
		}
		return fmt.Errorf("rank %d exited: %w", src, ErrRankDead)
	}
	return nil
}

// unreachableErr reports the first reason any rank is unreachable (used
// by barriers, which need every rank).
func (w *World) unreachableErr() error {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if w.down {
		if w.cause != nil {
			return fmt.Errorf("%w (cause: %v)", ErrWorldDown, w.cause)
		}
		return ErrWorldDown
	}
	for r := 0; r < w.size; r++ {
		if cause, seen := w.dead[r]; seen {
			if cause != nil {
				return fmt.Errorf("rank %d died (%v): %w", r, cause, ErrRankDead)
			}
			return fmt.Errorf("rank %d exited: %w", r, ErrRankDead)
		}
	}
	return nil
}

// Abort tears down the whole world from a rank (e.g. rank 0 detecting a
// globally diverged state).
func (c *Comm) Abort(err error) { c.world.Fail(err) }

// Crash marks this rank dead, simulating sudden rank loss: peers see
// ErrRankDead once the messages it already sent are drained.
func (c *Comm) Crash(err error) { c.world.MarkDead(c.rank, err) }

// AbortRank stops the calling rank with err, the way a failed Recv does:
// Run and RunWorld return err as the rank's error and peers waiting on
// the rank see ErrRankDead. It is for code without an error return that
// finds a message unusable (a halo face that fails its checksum).
func (c *Comm) AbortRank(err error) { panic(rankPanic{err}) }

// recvAny is the failure-aware receive all public receives build on.
// It delivers queued messages first (a dead peer's in-flight messages
// remain consumable, matching a network that delivered before the
// crash), then errors once the peer is unreachable, the world is down,
// or the deadline passes.
func (c *Comm) recvAny(src, tag int, timeout time.Duration) (Message, error) {
	mb := c.world.box(src, c.rank, tag)
	return c.recvOn(mb, src, tag, mb.get(), timeout)
}

// recvOn waits on an already-registered waiter channel (registration
// happens at posting time so concurrent Irecvs match in posting order)
// and hands the channel back to the mailbox when it returns. A message
// that is already there costs no timer.
func (c *Comm) recvOn(mb *mailbox, src, tag int, ch chan Message, timeout time.Duration) (Message, error) {
	defer mb.release(ch)
	select {
	case m := <-ch:
		return m, nil
	default:
	}
	w := c.world
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	// With a phi-accrual detector installed, a blocked receive polls the
	// source's suspicion level so a silently-vanished peer is detected
	// adaptively instead of waiting out the full hard deadline.
	var suspectTick <-chan time.Time
	det := w.Detector()
	if det != nil && src != c.rank {
		tk := time.NewTicker(det.CheckEvery)
		defer tk.Stop()
		suspectTick = tk.C
	}
	for {
		// Fast path: a message is already available.
		select {
		case m := <-ch:
			return m, nil
		default:
		}
		// Order matters: take the failure signal before checking the
		// peer, so a state change after the check closes the channel
		// we are about to select on.
		sig := w.failureSignal()
		if err := w.peerErr(src); err != nil {
			mb.cancel(ch)
			// A message may have raced in between the fast path and
			// cancel; drain queued messages before reporting death.
			if m, ok := mb.tryGet(); ok {
				return m, nil
			}
			return Message{}, err
		}
		select {
		case m := <-ch:
			return m, nil
		case <-sig:
			// Failure state changed; loop and re-evaluate.
		case <-suspectTick:
			if !det.Suspect(src) {
				continue
			}
			mb.cancel(ch)
			if m, ok := mb.tryGet(); ok {
				return m, nil
			}
			return Message{}, fmt.Errorf("rank %d recv(src=%d, tag=%d): silent %v, phi %.1f ≥ %.1f: %w",
				c.rank, src, tag, det.Silence(src).Round(time.Millisecond),
				det.Phi(src), det.Threshold, ErrSuspect)
		case <-deadline:
			mb.cancel(ch)
			if m, ok := mb.tryGet(); ok {
				return m, nil
			}
			return Message{}, fmt.Errorf("rank %d recv(src=%d, tag=%d) exceeded %v: %w",
				c.rank, src, tag, timeout, ErrTimeout)
		}
	}
}
