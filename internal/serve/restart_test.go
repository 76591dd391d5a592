package serve

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"sunwaylb/internal/swio"
)

// TestJournalReplayRestart is the daemon crash-recovery acceptance test:
// kill a server mid-flight (no terminal journal records, exactly what
// SIGKILL leaves behind), start a fresh server over the same data dir,
// and require that (a) interrupted work is re-admitted under its
// original IDs, (b) the job that was running resumes from the drain
// checkpoint it wrote on the way down, and (c) jobs that never started
// run to completion bit-identical to solo runs.
func TestJournalReplayRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := testServer(t, Config{Workers: 1, DataDir: dir})
	blockSpec := JobSpec{Tenant: "t", Case: smallCase("blocker", 1_000_000), Decomp: "2x1", SnapshotEvery: 2}
	blocker, err := s1.Submit(blockSpec)
	if err != nil {
		t.Fatal(err)
	}
	q1Spec := JobSpec{Tenant: "t", Case: smallCase("replay-1", 10), Decomp: "2x1"}
	// Same tenant as the blocker: all three share one shard's FIFO, so the
	// blocker deterministically holds the only worker when the kill lands.
	q2Spec := JobSpec{Tenant: "t", Case: smallCase("replay-2", 12), Decomp: "2x1"}
	q1, err := s1.Submit(q1Spec)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s1.Submit(q2Spec)
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for blocker.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started (state %s)", blocker.State())
		}
		time.Sleep(time.Millisecond)
	}
	// Let it cross a few snapshot waves so the kill-path drain has a
	// complete wave to assemble.
	time.Sleep(30 * time.Millisecond)

	s1.Kill()

	// The dying supervisor drained a checkpoint for the running job.
	cpk := filepath.Join(dir, blocker.ID+".cpk")
	lat, err := swio.Restart(cpk)
	if err != nil {
		t.Fatalf("no drain checkpoint after kill: %v", err)
	}
	drainStep := lat.Step()
	if drainStep < 1 {
		t.Fatalf("drain checkpoint at step %d, want progress", drainStep)
	}

	// Restart over the same data dir.
	s2 := testServer(t, Config{Workers: 2, DataDir: dir})
	defer s2.Drain(context.Background())

	if m := s2.MetricsSnapshot(); m.JournalReplay == 0 {
		t.Error("restarted server replayed no journal records")
	}
	// Original IDs survive the restart — that is what keys the drain
	// checkpoint back to its job.
	rb, ok := s2.Job(blocker.ID)
	if !ok {
		t.Fatalf("blocker %s not re-admitted", blocker.ID)
	}
	rq1, ok := s2.Job(q1.ID)
	if !ok {
		t.Fatalf("queued job %s not re-admitted", q1.ID)
	}
	rq2, ok := s2.Job(q2.ID)
	if !ok {
		t.Fatalf("queued job %s not re-admitted", q2.ID)
	}

	// The never-started jobs now run to completion, bit-identical to the
	// solo reference: a daemon crash costs time, never correctness.
	if st := waitJob(t, rq1); st.State != StateDone {
		t.Fatalf("replayed %s finished %s: %s", rq1.ID, st.State, st.Error)
	}
	requireSolo(t, rq1, q1Spec, "replayed job")
	if st := waitJob(t, rq2); st.State != StateDone {
		t.Fatalf("replayed %s finished %s: %s", rq2.ID, st.State, st.Error)
	}
	requireSolo(t, rq2, q2Spec, "replayed job")

	// The blocker resumed from its drain checkpoint; drain the daemon and
	// require its fresh checkpoint to be at or past the old one — resumed
	// progress, not a restart from zero.
	deadline = time.Now().Add(10 * time.Second)
	for rb.State() != StateRunning {
		if rb.State().terminal() {
			t.Fatalf("replayed blocker finished early: %s", rb.State())
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed blocker never started (state %s)", rb.State())
		}
		time.Sleep(time.Millisecond)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if st := rb.Snapshot(); st.State != StateCanceled {
		t.Errorf("blocker after drain: %s, want canceled", st.State)
	}
	lat2, err := swio.Restart(cpk)
	if err != nil {
		t.Fatalf("no drain checkpoint after second drain: %v", err)
	}
	if lat2.Step() < drainStep {
		t.Errorf("second drain checkpoint at step %d regressed below the first (%d): resume went back to zero",
			lat2.Step(), drainStep)
	}
}
