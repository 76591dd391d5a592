package serve

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"sunwaylb/internal/config"
)

// TestServeLoadSoak floods the daemon with hundreds of queued jobs across
// six tenants, a third of them carrying fault plans, and holds the
// service to its always-on contract: every job completes, the bounded
// trace ring stays bounded (drops counted, memory O(1)), heap stays
// sane, and spot-checked results remain bit-identical to solo runs even
// at full load. Run by the `serve` CI tier; skipped under -short.
func TestServeLoadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("load soak skipped in -short mode")
	}
	const (
		jobs     = 240
		tenants  = 6
		traceBuf = 512
	)
	s := testServer(t, Config{
		Workers:        4,
		Shards:         2,
		QueuePerTenant: 64,
		MaxQueued:      512,
		TraceBuf:       traceBuf,
		Logf:           nil, // silent: hundreds of jobs would drown the log
	})
	s.logf = func(string, ...any) {}
	defer s.Drain(context.Background())

	var specs []JobSpec
	var handles []*Job
	for i := 0; i < jobs; i++ {
		spec := JobSpec{
			Tenant:        fmt.Sprintf("soak-%d", i%tenants),
			Case:          smallCase(fmt.Sprintf("soak-%d", i), 6),
			Decomp:        "2x1",
			SnapshotEvery: 2,
		}
		switch {
		case i%3 == 1:
			// Single rank loss: hot-swap recovery under load.
			spec.FaultPlan = fmt.Sprintf("seed=%d;crash@rank=1,step=3", 100+i)
		case i%9 == 4:
			spec.FaultPlan = fmt.Sprintf("seed=%d;flap@rank=1,step=2,len=2", 200+i)
			spec.Detector = "phi"
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		specs = append(specs, spec)
		handles = append(handles, j)
	}

	for i, j := range handles {
		st := waitJob(t, j)
		if st.State != StateDone {
			t.Fatalf("soak job %d (%s) finished %s: %s", i, j.ID, st.State, st.Error)
		}
	}

	// Spot-check bit-identity at full load: one clean, one crashing, one
	// flapping job against their solo references.
	for _, i := range []int{0, 1, 4} {
		requireSolo(t, handles[i], specs[i], fmt.Sprintf("soak job %d under load", i))
	}

	m := s.MetricsSnapshot()
	if m.Completed != jobs {
		t.Errorf("completed %d of %d jobs", m.Completed, jobs)
	}
	if m.Failed != 0 || m.Shed != 0 {
		t.Errorf("soak lost work: failed=%d shed=%d", m.Failed, m.Shed)
	}
	// The always-on telemetry ring must stay bounded no matter how much
	// the fleet churns: events capped, overflow counted, not grown.
	if m.TraceEvents > traceBuf {
		t.Errorf("trace ring grew to %d events, bound is %d", m.TraceEvents, traceBuf)
	}
	if m.TraceDropped == 0 {
		t.Errorf("soak produced no trace drops; ring bound of %d was never exercised", traceBuf)
	}
	if m.Recovery.HotSwaps == 0 {
		t.Error("a third of jobs crashed a rank but the fleet recorded no hot swaps")
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 512<<20 {
		t.Errorf("heap at %d MiB after soak; daemon memory is not bounded", ms.HeapAlloc>>20)
	}
}

// TestFinishedJobsRetainNoFields: a finished job keeps its result digest,
// not its field, so the daemon's heap after GC does not grow with the
// number of jobs it has finished — each 32³ field would pin ≈1 MB for the
// daemon's whole life.
func TestFinishedJobsRetainNoFields(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	s.logf = func(string, ...any) {}
	defer s.Drain(context.Background())
	run := func(n int) {
		for i := 0; i < n; i++ {
			j, err := s.Submit(JobSpec{
				Tenant: "retain",
				Case:   config.Case{Name: fmt.Sprintf("retain-%d", i), NX: 32, NY: 32, NZ: 32, Tau: 0.7, Steps: 2},
				Decomp: "1x1",
			})
			if err != nil {
				t.Fatal(err)
			}
			if st := waitJob(t, j); st.State != StateDone {
				t.Fatalf("job %s finished %s: %s", j.ID, st.State, st.Error)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(10)
	h10 := heap()
	run(30)
	h40 := heap()
	t.Logf("heap after GC: %.1f MB after 10 jobs, %.1f MB after 40", float64(h10)/1e6, float64(h40)/1e6)
	if h40 > h10+2<<20 {
		t.Errorf("heap grew %.1f MB over 30 finished 32³ jobs; finished jobs must not keep their fields",
			float64(h40-h10)/1e6)
	}
}

// TestFinishedJobReleasesItsState: by the time a job is done, the garbage
// it left — lattices, snapshot records, gather buffers — has been
// collected, so the next job does not allocate on top of it. Without the
// collection after each job the heap still held ~77 MB of the finished
// job's state here.
func TestFinishedJobReleasesItsState(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	s.logf = func(string, ...any) {}
	defer s.Drain(context.Background())
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapInuse
	j, err := s.Submit(JobSpec{
		Tenant: "release",
		Case:   config.Case{Name: "release", NX: 48, NY: 48, NZ: 48, Tau: 0.7, Steps: 10},
		Decomp: "2x1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	runtime.ReadMemStats(&ms)
	if grew := int64(ms.HeapInuse) - int64(base); grew > 24<<20 {
		t.Errorf("heap in use grew %.1f MB over a finished 48³ job; its state must be collected", float64(grew)/1e6)
	}
}
