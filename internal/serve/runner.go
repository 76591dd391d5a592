package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"sunwaylb/internal/core"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/patch"
	"sunwaylb/internal/perf"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/swio"
	"sunwaylb/internal/trace"
)

// shardLoop is one scheduler lane: WRR-dequeue jobs, lease a slot from
// the shared worker pool, and hand each job to its own bulkhead
// goroutine. The loop sleeps until woken by a submit (or retry) and
// exits on daemon shutdown.
func (s *Server) shardLoop(sh *shard) {
	defer s.wg.Done()
	for {
		select {
		case <-s.rootCtx.Done():
			return
		case <-sh.wake:
		}
		for {
			j := sh.adm.next()
			if j == nil {
				break
			}
			// Deadline-aware scheduling: a job whose deadline lapsed
			// while it sat in the queue — or lapses while it waits for
			// a worker slot below — fails right here, never wasting a
			// slot on a run that cannot finish in time.
			if j.State().terminal() {
				continue // canceled while queued
			}
			if time.Now().After(j.deadline) {
				s.finishJob(j, StateFailed, "deadline expired while queued", perf.RecoveryStats{})
				continue
			}
			dl := time.NewTimer(time.Until(j.deadline))
			select {
			case s.pool <- struct{}{}: // lease a worker slot
				dl.Stop()
			case <-dl.C:
				s.finishJob(j, StateFailed, "deadline expired waiting for a worker slot", perf.RecoveryStats{})
				continue
			case <-s.rootCtx.Done():
				dl.Stop()
				// Shutdown while waiting for a slot: the job stays open
				// in the journal and is re-admitted at the next start.
				sh.adm.requeueFront(j)
				return
			}
			s.wg.Add(1)
			go s.runJob(sh, j)
		}
	}
}

// runJob executes one job inside its bulkhead: a dedicated goroutine
// whose panics are contained, with a private injector, snapshot store
// and supervisor. The worker slot is released when the run ends, for
// any reason.
func (s *Server) runJob(sh *shard, j *Job) {
	defer s.wg.Done()
	defer func() { <-s.pool }() // release the worker slot
	// Bulkhead of last resort: the supervisor already contains rank
	// panics, but a bug in the service-side plumbing itself must also
	// fail only this job, never the daemon.
	defer func() {
		if p := recover(); p != nil {
			s.logf("serve: job %s bulkhead caught panic: %v", j.ID, p)
			s.finishJob(j, StateFailed, fmt.Sprintf("panic: %v", p), perf.RecoveryStats{})
		}
	}()

	// Claim the run; a cancel that won the race already finished it.
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	if j.started.IsZero() {
		j.started = time.Now()
	}
	j.attempts++
	attempt := j.attempts
	deadline := j.deadline
	jobCtx, cancelCause := context.WithCancelCause(s.rootCtx)
	j.cancel = cancelCause
	j.mu.Unlock()
	defer cancelCause(nil)
	ctx, cancelT := context.WithDeadline(jobCtx, deadline)
	defer cancelT()

	s.mu.Lock()
	s.running++
	running := s.running
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()
	if attempt == 1 {
		s.journal.append(journalEntry{Op: "start", ID: j.ID})
	}
	s.ctl.Counter(trace.Wall, trace.TrackServe, "running", s.ctl.Now(), float64(running))

	field, stats, err := s.superviseJob(ctx, j)
	// The job's lattices and snapshot records are garbage now. Collect them
	// before this worker takes its next job: left to the pacer, they stand
	// until the next job's allocations reach twice the heap they were live
	// in, and the daemon holds two jobs' state per worker instead of one.
	runtime.GC()

	switch {
	case err == nil:
		dig := ResultDigest{ID: j.ID, Name: j.Spec.Case.Name, NX: field.NX, NY: field.NY, NZ: field.NZ,
			Steps: j.Spec.Case.Steps, Checksum: FieldChecksum(field)}
		j.mu.Lock()
		j.digest = dig
		j.mu.Unlock()
		s.finishJob(j, StateDone, "", stats)

	case errors.Is(err, psolve.ErrCanceled):
		cause := context.Cause(jobCtx)
		switch {
		case errors.Is(cause, errDrainStop) || errors.Is(cause, errKilled):
			// Shutdown interruption: terminal in this process, open in
			// the journal — the restart picks it up again, resuming
			// from the drain checkpoint the supervisor just wrote.
			s.finishJob(j, StateCanceled, "interrupted by daemon shutdown", stats)
		case errors.Is(cause, errTenantCanceled):
			s.finishJob(j, StateCanceled, "canceled by tenant", stats)
		case ctx.Err() == context.DeadlineExceeded:
			s.finishJob(j, StateFailed, fmt.Sprintf("deadline exceeded: %v", err), stats)
		default:
			s.finishJob(j, StateCanceled, err.Error(), stats)
		}

	case workerLoss(err) && attempt <= j.Spec.Retries:
		// The job's supervisor exhausted its restart budget on rank
		// deaths. Re-queue with full-jitter backoff: transient capacity
		// loss deserves another chance, deterministic bugs do not (they
		// are not workerLoss and fail immediately below).
		policy := s.cfg.Retry
		policy.Seed = jobSeed(j.ID)
		delay := policy.Delay(attempt - 1)
		s.logf("serve: job %s lost its workers (%v); retry %d/%d in %v",
			j.ID, err, attempt, j.Spec.Retries, delay)
		j.mu.Lock()
		j.state = StateQueued
		j.cancel = nil
		j.mu.Unlock()
		s.ctl.Instant(trace.Wall, trace.TrackServe, "job-retry", s.ctl.Now())
		s.wg.Add(1)
		time.AfterFunc(delay, func() {
			defer s.wg.Done()
			if s.rootCtx.Err() != nil {
				return // shutdown: the journal re-admits it next start
			}
			sh.adm.requeueFront(j)
			wakeShard(sh)
		})

	default:
		s.finishJob(j, StateFailed, err.Error(), stats)
	}
}

// workerLoss classifies errors that mean the job's simulated workers
// died (injected crashes, rank deaths, phi suspicion) rather than the
// job itself being defective — the retryable class.
func workerLoss(err error) bool {
	return errors.Is(err, fault.ErrInjectedCrash) ||
		(errors.Is(err, mpi.ErrRankDead) && !errors.Is(err, mpi.ErrRankPanic))
}

// jobSeed derives a stable backoff seed from the job ID so replays of
// the same job back off identically while distinct jobs decorrelate.
func jobSeed(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64())
}

// superviseJob runs the job under its own supervisor with per-job fault
// isolation: a private injector (or none), a private snapshot store, a
// private checkpoint file, and panic containment on. A drain checkpoint
// from an earlier life of the job seeds it. Rank and patch jobs differ
// only in the decomposition the ladder drives; a patch job's balancer
// statistics are folded into the fleet's patch gauges (served by
// /metrics).
func (s *Server) superviseJob(ctx context.Context, j *Job) (*core.MacroField, perf.RecoveryStats, error) {
	retry := s.cfg.Retry
	retry.Seed = jobSeed(j.ID)
	o := psolve.SupervisorOptions{
		Ctx:             ctx,
		ContainPanics:   true,
		Steps:           j.Spec.Case.Steps,
		CheckpointEvery: j.Spec.Case.CheckpointEvery,
		CheckpointPath:  s.checkpointPath(j),
		MaxRestarts:     j.Spec.MaxRestarts,
		SnapshotEvery:   j.Spec.SnapshotEvery,
		GroupSize:       j.Spec.GroupSize,
		SpareRanks:      j.Spec.SpareRanks,
		Detector:        j.Spec.Detector,
		Retry:           retry,
	}
	if err := o.SetPolicy(j.Spec.FaultPlan, j.Spec.Levels, j.px*j.py); err != nil {
		return nil, perf.RecoveryStats{}, err
	}
	if lat, rerr := swio.Restart(o.CheckpointPath); rerr == nil && lat.Step() < o.Steps {
		o.Opts.Restore = lat
		s.logf("serve: job %s resuming from drain checkpoint at step %d", j.ID, lat.Step())
	}
	if patchWorkerCount(j.Spec.Decomp) == 0 {
		opts, err := BuildOptions(j.Spec)
		if err != nil {
			return nil, perf.RecoveryStats{}, err
		}
		opts.Restore = o.Opts.Restore
		o.Opts = opts
		return psolve.Supervise(o)
	}
	popts, err := BuildPatchOptions(j.Spec)
	if err != nil {
		return nil, perf.RecoveryStats{}, err
	}
	w, err := patch.NewWorld(popts)
	if err != nil {
		return nil, perf.RecoveryStats{}, err
	}
	field, stats, err := psolve.SuperviseOn(w, o)
	pst := w.Stats()
	s.mu.Lock()
	s.patchJobs++
	s.patchMigrations += int64(pst.Migrations)
	s.patchRebalances += int64(pst.Rebalances)
	if pst.ImbalancePost > 0 {
		s.patchLastImbalance = pst.ImbalancePost
	}
	if len(pst.PatchesPerOwner) > 0 {
		s.patchPerOwner = append([]int(nil), pst.PatchesPerOwner...)
	}
	s.mu.Unlock()
	return field, stats, err
}

// BuildPatchOptions translates a patch-decomposed job spec into the
// patch world configuration: the same periodic shear box BuildOptions
// produces, tiled so every worker can own at least one patch (fitted
// to the halo protocol's two-cell minimum extent by patch.FitTiles).
// Exported so tests can run the exact solo configuration a service job
// runs.
func BuildPatchOptions(spec JobSpec) (patch.Options, error) {
	n, _, err := (&spec).normalize()
	if err != nil {
		return patch.Options{}, err
	}
	if patchWorkerCount(spec.Decomp) == 0 {
		return patch.Options{}, fmt.Errorf("serve: decomp %q is not patch-decomposed", spec.Decomp)
	}
	return patch.Options{
		GNX: spec.Case.NX, GNY: spec.Case.NY, GNZ: spec.Case.NZ,
		TX: patch.FitTiles(n, spec.Case.NX), TY: patch.FitTiles(2, spec.Case.NY), TZ: 1,
		Tau:         spec.Case.Tau,
		Smagorinsky: spec.Case.Smagorinsky,
		PeriodicX:   true, PeriodicY: true, PeriodicZ: true,
		Init:    ShearInit,
		Workers: make([]patch.Worker, n),
	}, nil
}

// ShearInit is the deterministic initial condition of every service job:
// a sinusoidal shear exercising all axes on the periodic box. It is
// exported so conformance tests can run bit-identical solo references.
func ShearInit(gx, gy, gz int) (rho, ux, uy, uz float64) {
	return 1.0 + 0.01*math.Sin(0.3*float64(gx)),
		0.03 * math.Sin(0.2*float64(gy)),
		0.02 * math.Cos(0.25*float64(gz)),
		0.01 * math.Sin(0.15*float64(gx+gy))
}

// BuildOptions translates a job spec into solver options: a fully
// periodic box with the shear initial condition, decomposed on the
// spec's process grid. Exported so tests can run the exact solo
// configuration a service job runs.
func BuildOptions(spec JobSpec) (psolve.Options, error) {
	px, py, err := (&spec).normalize()
	if err != nil {
		return psolve.Options{}, err
	}
	return psolve.Options{
		GNX: spec.Case.NX, GNY: spec.Case.NY, GNZ: spec.Case.NZ,
		PX: px, PY: py,
		Tau:         spec.Case.Tau,
		Smagorinsky: spec.Case.Smagorinsky,
		PeriodicX:   true, PeriodicY: true, PeriodicZ: true,
		Init: ShearInit,
	}, nil
}
