package mpi

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("want error for empty world")
	}
	w, err := NewWorld(4)
	if err != nil || w.Size() != 4 {
		t.Fatalf("NewWorld(4) = %v, %v", w, err)
	}
}

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, Message{Data: []float64{1, 2, 3}, Aux: []byte{9}})
		case 1:
			m := c.Recv(0, 7)
			if len(m.Data) != 3 || m.Data[2] != 3 || m.Aux[0] != 9 {
				return fmt.Errorf("bad message %+v", m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSeparation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, Message{Data: []float64{1}})
			c.Send(1, 2, Message{Data: []float64{2}})
			return nil
		}
		// Receive in reverse tag order: tags must not mix streams.
		m2 := c.Recv(0, 2)
		m1 := c.Recv(0, 1)
		if m1.Data[0] != 1 || m2.Data[0] != 2 {
			return fmt.Errorf("tags mixed: %v %v", m1.Data, m2.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderPreserved(t *testing.T) {
	const n = 50
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 0, Message{Data: []float64{float64(i)}})
			}
			return nil
		}
		for i := 0; i < n; i++ {
			if m := c.Recv(0, 0); m.Data[0] != float64(i) {
				return fmt.Errorf("out of order: got %v want %d", m.Data[0], i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Post many sends before the peer receives (tests the
			// overflow goroutine path too).
			var reqs []*Request
			for i := 0; i < 100; i++ {
				reqs = append(reqs, c.Isend(1, 3, Message{Data: []float64{float64(i)}}))
			}
			for _, r := range reqs {
				r.Wait()
			}
			return nil
		}
		var reqs []*Request
		for i := 0; i < 100; i++ {
			reqs = append(reqs, c.Irecv(0, 3))
		}
		for i, r := range reqs {
			if m := r.Wait(); m.Data[0] != float64(i) {
				return fmt.Errorf("irecv %d got %v", i, m.Data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	var counter atomic.Int64
	const ranks = 8
	err := Run(ranks, func(c *Comm) error {
		for round := 0; round < 5; round++ {
			counter.Add(1)
			c.Barrier()
			// After the barrier, every rank must observe all
			// increments of this round.
			if got := counter.Load(); got < int64((round+1)*ranks) {
				return fmt.Errorf("round %d: counter %d < %d", round, got, (round+1)*ranks)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	const ranks = 6
	err := Run(ranks, func(c *Comm) error {
		v := float64(c.Rank() + 1)
		if got := c.AllreduceSum(v); got != 21 {
			return fmt.Errorf("sum = %v, want 21", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSingleRank(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if got := c.AllreduceSum(5); got != 5 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherAllgather(t *testing.T) {
	const ranks = 5
	err := Run(ranks, func(c *Comm) error {
		all := c.Gather(1, Message{Data: []float64{float64(c.Rank() * 10)}})
		if c.Rank() == 1 {
			for r := 0; r < ranks; r++ {
				if all[r].Data[0] != float64(r*10) {
					return fmt.Errorf("gather[%d] = %v", r, all[r].Data)
				}
			}
		} else if all != nil {
			return fmt.Errorf("non-root gather must return nil")
		}
		ag := c.Allgather(Message{Data: []float64{float64(c.Rank())}})
		for r := 0; r < ranks; r++ {
			if ag[r].Data[0] != float64(r) {
				return fmt.Errorf("allgather[%d] = %v", r, ag[r].Data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
}

func TestValidatePanics(t *testing.T) {
	_ = Run(1, func(c *Comm) error {
		for _, f := range []func(){
			func() { c.Send(5, 0, Message{}) },
			func() { c.Send(0, -3, Message{}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						panic("expected panic did not happen")
					}
				}()
				f()
			}()
		}
		return nil
	})
}

func TestCart2D(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		g, err := NewCart2D(c, 3, 2, false, false)
		if err != nil {
			return err
		}
		x, y := g.Coords()
		if got := g.RankAt(x, y); got != c.Rank() {
			return fmt.Errorf("RankAt(Coords) = %d, want %d", got, c.Rank())
		}
		if c.Rank() == 0 {
			if g.Neighbor(-1, 0) != -1 {
				return fmt.Errorf("non-periodic west edge should be -1")
			}
			if g.Neighbor(1, 0) != 1 {
				return fmt.Errorf("east neighbour of 0 should be 1")
			}
			if g.Neighbor(0, 1) != 3 {
				return fmt.Errorf("north neighbour of 0 should be 3, got %d", g.Neighbor(0, 1))
			}
			if g.Neighbor(1, 1) != 4 {
				return fmt.Errorf("NE neighbour of 0 should be 4")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCart2DPeriodic(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		g, err := NewCart2D(c, 2, 2, true, true)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if got := g.Neighbor(-1, 0); got != 1 {
				return fmt.Errorf("periodic west of 0 = %d, want 1", got)
			}
			if got := g.Neighbor(0, -1); got != 2 {
				return fmt.Errorf("periodic south of 0 = %d, want 2", got)
			}
			for dx := -1; dx <= 1; dx++ {
				for dy := -1; dy <= 1; dy++ {
					if r := g.Neighbor(dx, dy); r < 0 {
						return fmt.Errorf("periodic neighbour (%d,%d) missing", dx, dy)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCart2DValidation(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if _, err := NewCart2D(c, 3, 2, false, false); err == nil {
			return fmt.Errorf("want size-mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFactorGrid(t *testing.T) {
	cases := []struct {
		n, nx, ny      int
		wantPX, wantPY int
	}{
		{4, 100, 100, 2, 2},
		{8, 400, 100, 4, 2},
		{1, 10, 10, 1, 1},
		{6, 100, 100, 2, 3}, // or 3,2 — check cost instead
	}
	for _, tc := range cases {
		px, py := FactorGrid(tc.n, tc.nx, tc.ny)
		if px*py != tc.n {
			t.Errorf("FactorGrid(%d): %d×%d does not multiply to n", tc.n, px, py)
		}
		cost := float64(tc.nx)/float64(px) + float64(tc.ny)/float64(py)
		wantCost := float64(tc.nx)/float64(tc.wantPX) + float64(tc.ny)/float64(tc.wantPY)
		if cost > wantCost+1e-9 {
			t.Errorf("FactorGrid(%d,%d,%d) = %d×%d (cost %v), expected cost ≤ %v",
				tc.n, tc.nx, tc.ny, px, py, cost, wantCost)
		}
	}
}

func BenchmarkSendRecvLatency(b *testing.B) {
	w, _ := NewWorld(2)
	c0 := &Comm{world: w, rank: 0}
	c1 := &Comm{world: w, rank: 1}
	msg := Message{Data: make([]float64, 128)}
	done := make(chan struct{})
	go func() {
		for i := 0; i < b.N; i++ {
			c1.Recv(0, 0)
		}
		close(done)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c0.Send(1, 0, msg)
	}
	<-done
}
