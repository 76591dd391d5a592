package mpi

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sunwaylb/internal/leaktest"
)

// watchdog fails the test if fn has not returned within d — the
// acceptance criterion is that no receive blocks forever once the world
// is marked failed.
func watchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("operation did not complete within the watchdog deadline (hang)")
	}
}

// TestRecvFromExitedRank is the satellite fix's acceptance test: a Recv
// posted against a rank that has already exited cleanly (without sending)
// must return ErrRankDead within the 5 s watchdog, not hang forever.
func TestRecvFromExitedRank(t *testing.T) {
	watchdog(t, 5*time.Second, func() {
		var recvErr error
		err := Run(2, func(c *Comm) error {
			if c.Rank() == 1 {
				return nil // exit without ever sending
			}
			_, recvErr = c.RecvE(1, 0)
			return nil
		})
		if err != nil {
			t.Errorf("run error: %v", err)
		}
		if !errors.Is(recvErr, ErrRankDead) {
			t.Errorf("recv from exited rank: got %v, want ErrRankDead", recvErr)
		}
	})
}

// TestRecvFromCrashedRank: a rank marked dead mid-run (Crash) surfaces
// ErrRankDead to its blocked peers, and the crash cause is retained as
// the world's failure cause.
func TestRecvFromCrashedRank(t *testing.T) {
	cause := errors.New("simulated node loss")
	watchdog(t, 5*time.Second, func() {
		w, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		runErr := RunWorld(w, func(c *Comm) error {
			if c.Rank() == 1 {
				c.Crash(cause)
				return cause
			}
			c.Recv(1, 0) // aborts via rankPanic
			return nil
		})
		if runErr == nil {
			t.Fatal("want a rank error")
		}
		if !errors.Is(runErr, ErrRankDead) && !errors.Is(runErr, cause) {
			t.Errorf("run error %v should carry the death", runErr)
		}
		if got := w.FailureCause(); !errors.Is(got, cause) {
			t.Errorf("failure cause = %v, want the crash cause", got)
		}
	})
}

// TestRankDeathLeavesNoGoroutines: a world torn down by a rank's death
// ends every goroutine it started — the rank goroutines, whatever each
// was blocked in, and the helper of a non-blocking receive its rank
// posted and never waited for.
func TestRankDeathLeavesNoGoroutines(t *testing.T) {
	defer leaktest.Check(t)()
	cause := errors.New("simulated node loss")
	watchdog(t, 5*time.Second, func() {
		w, err := NewWorld(4)
		if err != nil {
			t.Fatal(err)
		}
		err = RunWorld(w, func(c *Comm) error {
			switch c.Rank() {
			case 0:
				c.Irecv(3, 0) // abandoned: only the death ends its helper
			case 1:
				_, err := c.Irecv(3, 1).WaitE()
				return err
			case 2:
				return c.BarrierE()
			case 3:
				time.Sleep(10 * time.Millisecond)
				c.Crash(cause)
				return cause
			}
			return nil
		})
		if !errors.Is(err, ErrRankDead) && !errors.Is(err, cause) {
			t.Errorf("run error %v should carry the death", err)
		}
	})
}

// TestRecvDrainsBeforeDeath: messages a rank sent before dying stay
// consumable (the network delivered them before the crash); only after
// the queue drains does the receiver see ErrRankDead.
func TestRecvDrainsBeforeDeath(t *testing.T) {
	watchdog(t, 5*time.Second, func() {
		var got []float64
		var after error
		Run(2, func(c *Comm) error {
			if c.Rank() == 1 {
				c.Send(0, 7, Message{Data: []float64{1}})
				c.Send(0, 7, Message{Data: []float64{2}})
				return nil // now unreachable
			}
			for i := 0; i < 2; i++ {
				m, err := c.RecvE(1, 7)
				if err != nil {
					t.Errorf("recv %d: %v", i, err)
					return nil
				}
				got = append(got, m.Data[0])
			}
			_, after = c.RecvE(1, 7)
			return nil
		})
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Errorf("drained %v, want [1 2] in order", got)
		}
		if !errors.Is(after, ErrRankDead) {
			t.Errorf("post-drain recv: got %v, want ErrRankDead", after)
		}
	})
}

// TestRecvTimeout: an explicit deadline turns a silent message loss into
// ErrTimeout.
func TestRecvTimeout(t *testing.T) {
	watchdog(t, 5*time.Second, func() {
		barrier := make(chan struct{})
		var terr error
		Run(2, func(c *Comm) error {
			if c.Rank() == 1 {
				<-barrier // stay alive (not dead) while rank 0 times out
				return nil
			}
			_, terr = c.RecvTimeout(1, 0, 30*time.Millisecond)
			close(barrier)
			return nil
		})
		if !errors.Is(terr, ErrTimeout) {
			t.Errorf("got %v, want ErrTimeout", terr)
		}
	})
}

// TestWorldRecvTimeout: SetRecvTimeout applies the deadline to plain
// Recv/RecvE without per-call opt-in.
func TestWorldRecvTimeout(t *testing.T) {
	watchdog(t, 5*time.Second, func() {
		w, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		w.SetRecvTimeout(30 * time.Millisecond)
		barrier := make(chan struct{})
		var terr error
		RunWorld(w, func(c *Comm) error {
			if c.Rank() == 1 {
				<-barrier
				return nil
			}
			_, terr = c.RecvE(1, 0)
			close(barrier)
			return nil
		})
		if !errors.Is(terr, ErrTimeout) {
			t.Errorf("got %v, want ErrTimeout", terr)
		}
	})
}

// TestAbortUnblocksEveryone: rank 0 tearing the world down (Abort) wakes
// every blocked receive and barrier with ErrWorldDown.
func TestAbortUnblocksEveryone(t *testing.T) {
	cause := errors.New("diverged")
	watchdog(t, 5*time.Second, func() {
		var downs atomic.Int64
		err := Run(4, func(c *Comm) error {
			if c.Rank() == 0 {
				time.Sleep(10 * time.Millisecond) // let peers block first
				c.Abort(cause)
				return cause
			}
			// Ranks 1..3 block on a message that never comes.
			_, err := c.RecvE((c.Rank()+1)%c.Size(), 3)
			if errors.Is(err, ErrWorldDown) {
				downs.Add(1)
			}
			return err
		})
		if err == nil {
			t.Fatal("want run failure after Abort")
		}
		if downs.Load() != 3 {
			t.Errorf("%d ranks saw ErrWorldDown, want 3", downs.Load())
		}
	})
}

// TestBarrierAbortsOnDeadRank: a barrier that can never complete (one
// member died) returns ErrRankDead instead of deadlocking.
func TestBarrierAbortsOnDeadRank(t *testing.T) {
	watchdog(t, 5*time.Second, func() {
		var berr error
		Run(3, func(c *Comm) error {
			switch c.Rank() {
			case 2:
				return errors.New("rank 2 dies before the barrier")
			case 0:
				berr = c.BarrierE()
			default:
				c.BarrierE()
			}
			return nil
		})
		if !errors.Is(berr, ErrRankDead) {
			t.Errorf("barrier with dead member: got %v, want ErrRankDead", berr)
		}
	})
}

// TestCollectiveAbortsOnDeadRank: blocking collectives (gather at root)
// abort via the rank-panic path when a contributor dies, and RunWorld
// converts that into the rank's error instead of crashing the process.
func TestCollectiveAbortsOnDeadRank(t *testing.T) {
	watchdog(t, 5*time.Second, func() {
		err := Run(3, func(c *Comm) error {
			if c.Rank() == 2 {
				return errors.New("lost before contributing")
			}
			c.Gather(0, Message{Data: []float64{float64(c.Rank())}})
			return nil
		})
		if err == nil {
			t.Fatal("want run failure")
		}
		if !errors.Is(err, ErrRankDead) {
			t.Errorf("got %v, want the gather to surface ErrRankDead", err)
		}
	})
}

// TestIrecvFailureSetsRequestError: a non-blocking receive against a
// dying peer completes with the error on the request (WaitE), leaking no
// goroutine and never hanging Wait.
func TestIrecvFailureSetsRequestError(t *testing.T) {
	watchdog(t, 5*time.Second, func() {
		var werr error
		Run(2, func(c *Comm) error {
			if c.Rank() == 1 {
				return nil
			}
			req := c.Irecv(1, 0)
			_, werr = req.WaitE()
			return nil
		})
		if !errors.Is(werr, ErrRankDead) {
			t.Errorf("Irecv against exited rank: got %v, want ErrRankDead", werr)
		}
	})
}

// dropHook drops the first n user messages it sees.
type dropHook struct {
	budget atomic.Int64
}

func (h *dropHook) OnSend(src, dst, tag int, data []float64, aux []byte) int {
	if h.budget.Add(-1) >= 0 {
		return 0
	}
	return 1
}

// dupHook duplicates every user message.
type dupHook struct{}

func (dupHook) OnSend(src, dst, tag int, data []float64, aux []byte) int { return 2 }

// TestFaultHookDrop: a hook-dropped message plus a receive deadline
// yields ErrTimeout — loss is detectable, not a hang.
func TestFaultHookDrop(t *testing.T) {
	watchdog(t, 5*time.Second, func() {
		w, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		h := &dropHook{}
		h.budget.Store(1)
		w.SetFaultHook(h)
		w.SetRecvTimeout(50 * time.Millisecond)
		barrier := make(chan struct{})
		var terr error
		RunWorld(w, func(c *Comm) error {
			if c.Rank() == 1 {
				c.Send(0, 9, Message{Data: []float64{42}}) // dropped
				<-barrier
				return nil
			}
			_, terr = c.RecvE(1, 9)
			close(barrier)
			return nil
		})
		if !errors.Is(terr, ErrTimeout) {
			t.Errorf("dropped message: got %v, want ErrTimeout", terr)
		}
	})
}

// TestFaultHookDuplicate: a duplicated message is received twice;
// collectives (negative tags) bypass the hook entirely.
func TestFaultHookDuplicate(t *testing.T) {
	watchdog(t, 5*time.Second, func() {
		w, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaultHook(dupHook{})
		var got []float64
		var sum float64
		RunWorld(w, func(c *Comm) error {
			if c.Rank() == 1 {
				c.Send(0, 5, Message{Data: []float64{7}})
				sum = c.AllreduceSum(1) // collective must still work
				return nil
			}
			for i := 0; i < 2; i++ {
				m := c.Recv(1, 5)
				got = append(got, m.Data[0])
			}
			c.AllreduceSum(1)
			return nil
		})
		if len(got) != 2 || got[0] != 7 || got[1] != 7 {
			t.Errorf("duplicate delivery got %v, want [7 7]", got)
		}
		if sum != 2 {
			t.Errorf("allreduce under dup hook = %v, want 2 (collectives are reliable)", sum)
		}
	})
}

// TestFaultHookDuplicateIsDistinctCopy: the two deliveries of a duplicated
// message share no memory, so a receiver that overwrites or recycles the
// first cannot reach the second. Two goroutines take one copy each, one
// writes while the other reads: shared payloads are a -race failure.
func TestFaultHookDuplicateIsDistinctCopy(t *testing.T) {
	watchdog(t, 5*time.Second, func() {
		w, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaultHook(dupHook{})
		var got [2]float64
		var aux [2]byte
		RunWorld(w, func(c *Comm) error {
			if c.Rank() == 1 {
				c.Send(0, 5, Message{Data: []float64{7, 8}, Aux: []byte{3}})
				return nil
			}
			first, second := c.Recv(1, 5), c.Recv(1, 5)
			done := make(chan struct{})
			go func() {
				defer close(done)
				first.Data[1], first.Aux[0] = -1, 0
			}()
			got[0], got[1], aux[0] = second.Data[0], second.Data[1], second.Aux[0]
			<-done
			return nil
		})
		if got != [2]float64{7, 8} || aux[0] != 3 {
			t.Errorf("second delivery reads %v/%v after the first was overwritten, want [7 8]/3", got, aux[0])
		}
	})
}
