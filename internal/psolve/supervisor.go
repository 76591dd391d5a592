package psolve

// Self-healing run supervisor: the recovery loop around the §IV-B
// checkpoint/restart controller, upgraded with severity-aware recovery
// over the multi-level in-memory checkpoint hierarchy (internal/resil).
//
// A supervised run takes two kinds of state copies: periodic in-memory
// snapshot waves (L1 per-rank copy, L2 buddy copy, L3 XOR parity —
// cheap, every few steps) and periodic health-gated, CRC-verified disk
// checkpoints (L4 — expensive, rare). On a failure the supervisor
// classifies the damage before deciding how to heal:
//
//   - Injected rank deaths covering at most one member per parity group
//     (and within the spare budget) are repaired from memory: the dead
//     blocks come back from a buddy copy or the parity equation, the
//     world restarts at full size on spare ranks, and the run resumes
//     from the latest snapshot wave — no disk access, no shrink, and at
//     most SnapshotEvery-1 steps to replay.
//   - Everything else — multi-loss inside one parity group, corrupted
//     deposits, diverged health checks, non-injected errors — escalates
//     to the PR 1 path: roll back to the last verified-good L4
//     checkpoint, optionally shrinking the world.
//
// Because the solver is deterministic, both paths produce states
// bit-identical to a fault-free run.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/fault"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/perf"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/swio"
	"sunwaylb/internal/trace"
)

// ErrCanceled reports that a supervised run was stopped through its
// context before reaching the target step count. The run is not broken:
// the supervisor drains first — it preserves the newest recoverable
// state as an L4 checkpoint at CheckpointPath — so a canceled job can be
// resumed later via Opts.Restore. Callers test with errors.Is.
var ErrCanceled = errors.New("psolve: run canceled")

// SupervisorOptions configures a supervised distributed run.
type SupervisorOptions struct {
	// Ctx, when non-nil, bounds the run's lifetime. Cancellation tears
	// the current world down promptly (blocked receives wake, compute
	// loops observe it at the next step boundary), after which the
	// supervisor drains — writes the newest recoverable state to
	// CheckpointPath — and returns an error wrapping ErrCanceled instead
	// of restarting. A nil Ctx preserves the original run-to-completion
	// behaviour.
	Ctx context.Context
	// ContainPanics runs every world in bulkhead mode: a panic in solver
	// code becomes that rank's error (wrapping mpi.ErrRankPanic) and the
	// attempt fails through the normal escalation path instead of
	// crashing the host process. Service deployments set this; the CLI
	// keeps the default loud crash.
	ContainPanics bool
	// Opts is the base solver configuration. Opts.Restore, if set,
	// seeds the supervisor's last-good state (resume + rollback base).
	Opts Options
	// Steps is the target step count.
	Steps int
	// CheckpointEvery takes a health-gated L4 checkpoint every N
	// completed steps (0 disables disk checkpointing: an escalated
	// failure restarts from the beginning).
	CheckpointEvery int
	// CheckpointPath is the checkpoint file (atomic rename + retry).
	// Empty keeps verified checkpoints in memory only.
	CheckpointPath string
	// MaxRestarts bounds the recovery budget (hot swaps and disk
	// rollbacks combined); the run fails once a restart would exceed it.
	MaxRestarts int
	// AllowShrink re-decomposes onto one fewer rank after an escalated
	// rank-death failure (shrinking recovery), down to MinRanks. Hot
	// swaps never shrink.
	AllowShrink bool
	// MinRanks floors shrinking recovery (default 1).
	MinRanks int
	// Injector, if non-nil, drives deterministic fault injection: rank
	// crashes, heartbeat flaps, message faults (via the mpi hook) and
	// checkpoint corruption.
	Injector *fault.Injector
	// RecvTimeout bounds every receive; 0 defaults to 5 s when an
	// injector is present (dropped messages must become ErrTimeout, not
	// hangs) and to no deadline otherwise.
	RecvTimeout time.Duration
	// Retry is the checkpoint-write retry policy (zero = defaults).
	Retry swio.RetryPolicy
	// Logf receives recovery-path diagnostics (nil = silent).
	Logf func(format string, args ...any)

	// SnapshotEvery runs an in-memory snapshot wave every N completed
	// steps (0 disables the memory hierarchy entirely).
	SnapshotEvery int
	// Levels selects the active checkpoint levels. Zero means L4 only,
	// which is the PR 1 behaviour; resil.L1|resil.L2|resil.L3|resil.L4
	// enables the full hierarchy.
	Levels resil.Levels
	// GroupSize is the parity-group size (default 4): contiguous rank
	// intervals whose members buddy and parity-protect each other. Any
	// single loss per group is memory-repairable.
	GroupSize int
	// SpareRanks is the hot-swap budget: how many dead ranks may be
	// replaced by spares (world size preserved) before rank loss
	// escalates to the disk path.
	SpareRanks int
	// Detector selects failure detection: "deadline" (default, the PR 1
	// fixed receive deadline) or "phi" (heartbeat-driven phi-accrual
	// suspicion with the deadline kept as a last resort).
	Detector string
	// PhiThreshold overrides the phi detector's suspicion threshold
	// (0 = mpi.DefaultPhiThreshold).
	PhiThreshold float64
	// StragglerWallDelay, when > 0, makes injected stragglers actually
	// sleep (factor−1)×delay per step on the wall clock — so detector
	// tests exercise real slowness, not just the performance model.
	StragglerWallDelay time.Duration
}

// Supervise runs a distributed simulation to completion under the
// recovery loop and returns the gathered global field plus recovery
// metrics. The returned error is non-nil only when the restart budget is
// exhausted or the configuration is unusable.
func Supervise(o SupervisorOptions) (field *core.MacroField, stats perf.RecoveryStats, err error) {
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if o.Steps <= 0 {
		return nil, stats, fmt.Errorf("psolve: supervisor needs Steps > 0")
	}
	opts := o.Opts
	if opts.PX == 0 || opts.PY == 0 {
		opts.PX, opts.PY = mpi.FactorGrid(1, opts.GNX, opts.GNY)
	}
	minRanks := o.MinRanks
	if minRanks < 1 {
		minRanks = 1
	}
	levels := o.Levels
	if levels == 0 {
		levels = resil.L4 // PR 1 behaviour: disk only
	}
	groupSize := o.GroupSize
	if groupSize < 1 {
		groupSize = 4
	}
	// lastGood is the L4 rollback target: only ever a state that passed
	// the health gate and read back through CRC validation (or the
	// caller's explicit restore seed).
	lastGood := opts.Restore
	opts.Restore = nil
	ranks := opts.PX * opts.PY
	writeAttempts := 0 // checkpoint writes across all attempts (1-based index for fault plans)
	sparesLeft := o.SpareRanks

	// store models every rank's local memory for the L1–L3 hierarchy.
	var store *resil.Store
	if levels.Memory() && o.SnapshotEvery > 0 {
		store, err = newStoreFor(&opts, ranks, groupSize)
		if err != nil {
			return nil, stats, err
		}
	}
	defer func() {
		if store != nil {
			stats.SnapshotBytes = store.Bytes()
			stats.SnapshotResident = store.Resident()
		}
	}()
	if o.Injector != nil {
		o.Injector.ExpandGroups(groupSize, ranks)
	}
	// resume, when non-nil, is a one-shot memory-recovery state that
	// overrides lastGood for exactly the next attempt.
	var resume *core.Lattice

	// ctl is the control-plane timeline: restarts, swaps and attempt
	// markers live on the supervisor pseudo-rank, not on any solver rank.
	ctl := opts.Trace.ForRank(trace.RankSupervisor)
	if o.Injector != nil {
		o.Injector.SetTracer(opts.Trace)
	}

	for attempt := 0; ; attempt++ {
		ctl.InstantV(trace.Wall, trace.TrackCtl, "attempt", ctl.Now(), float64(attempt))
		if o.Injector != nil {
			o.Injector.BeginAttempt()
		}
		w, werr := mpi.NewWorld(ranks)
		if werr != nil {
			return nil, stats, werr
		}
		w.SetTracer(opts.Trace)
		w.SetContainPanics(o.ContainPanics)
		if o.Injector != nil {
			w.SetFaultHook(o.Injector)
		}
		timeout := o.RecvTimeout
		if timeout == 0 && o.Injector != nil {
			timeout = 5 * time.Second
		}
		if timeout > 0 {
			w.SetRecvTimeout(timeout)
		}
		if o.Detector == "phi" {
			det := mpi.NewPhiDetector()
			if o.PhiThreshold > 0 {
				det.Threshold = o.PhiThreshold
			}
			w.SetDetector(det)
		}

		runOpts := opts
		restore := lastGood
		if resume != nil {
			restore = resume
			resume = nil
		}
		runOpts.Restore = restore
		resumeStep := 0
		if restore != nil {
			resumeStep = restore.Step()
		}

		var result *core.MacroField
		var maxStep atomic.Int64
		maxStep.Store(int64(resumeStep))

		body := func(c *mpi.Comm) error {
			s, err := New(c, runOpts)
			if err != nil {
				return err
			}
			if o.Injector != nil {
				// Straggler injection slows the performance model; the
				// factor inflates the Sim-clock step spans so the trace
				// analysis sees the slow rank. With StragglerWallDelay it
				// additionally slows the host wall clock (below), which is
				// what the failure detector observes.
				s.StragglerFactor = o.Injector.StragglerFactor(c.Rank())
			}
			for s.Lat.Step() < o.Steps {
				step := s.Lat.Step()
				// Step-boundary cancellation check: the watcher goroutine
				// below wakes blocked receives, but a rank deep in compute
				// only observes cancellation here.
				if o.Ctx != nil && o.Ctx.Err() != nil {
					return fmt.Errorf("rank %d at step %d: %w", c.Rank(), step, ErrCanceled)
				}
				if o.Injector == nil || !o.Injector.FlapNow(c.Rank(), step) {
					c.Heartbeat()
				}
				if o.Injector != nil && o.Injector.CrashNow(c.Rank(), step) {
					cerr := fmt.Errorf("rank %d at step %d: %w", c.Rank(), step, fault.ErrInjectedCrash)
					c.Crash(cerr)
					return cerr
				}
				if o.StragglerWallDelay > 0 && s.StragglerFactor > 1 {
					time.Sleep(time.Duration(float64(o.StragglerWallDelay) * (s.StragglerFactor - 1)))
				}
				s.Step()
				for done := int64(s.Lat.Step()); ; {
					cur := maxStep.Load()
					if done <= cur || maxStep.CompareAndSwap(cur, done) {
						break
					}
				}
				if store != nil && s.Lat.Step()%o.SnapshotEvery == 0 && s.Lat.Step() < o.Steps {
					t0 := time.Now()
					if serr := s.ResilCapture(store, levels); serr != nil {
						return serr
					}
					if c.Rank() == 0 {
						stats.SnapshotWaves++
						stats.SnapshotTime += time.Since(t0)
					}
				}
				if levels.Has(resil.L4) && o.CheckpointEvery > 0 &&
					s.Lat.Step()%o.CheckpointEvery == 0 && s.Lat.Step() < o.Steps {
					// Collective: every rank gathers, root validates and
					// publishes while the others proceed.
					tr := c.Trace()
					var g *core.Lattice
					var gerr error
					func() {
						// Deferred close: a collective aborted by a
						// dead peer must still nest its span.
						if tr != nil {
							defer tr.Scope(trace.TrackCkpt, "ckpt-gather")()
						}
						g, gerr = s.GatherLattice(0)
					}()
					if gerr != nil {
						return gerr
					}
					if c.Rank() == 0 {
						if cerr := superviseCheckpoint(&o, c, g, store, &stats, &writeAttempts, &lastGood, logf); cerr != nil {
							return cerr
						}
					}
				}
			}
			if g := s.GatherMacro(0); g != nil {
				result = g
			}
			return nil
		}

		// The watcher tears the world down the moment the context fires,
		// so ranks blocked in receives or barriers wake with ErrWorldDown
		// instead of waiting out their deadlines.
		var watchDone chan struct{}
		if o.Ctx != nil {
			watchDone = make(chan struct{})
			go func() {
				select {
				case <-o.Ctx.Done():
					w.Fail(fmt.Errorf("%w: %v", ErrCanceled, context.Cause(o.Ctx)))
				case <-watchDone:
				}
			}()
		}
		runErr := mpi.RunWorld(w, body)
		if watchDone != nil {
			close(watchDone)
		}
		if runErr == nil {
			return result, stats, nil
		}
		if o.Ctx != nil && o.Ctx.Err() != nil {
			return nil, stats, superviseDrain(&o, opts, store, lastGood, int(maxStep.Load()), &stats, ctl, logf)
		}
		cause := w.FailureCause()
		if cause == nil {
			cause = runErr
		}
		if attempt >= o.MaxRestarts {
			return nil, stats, fmt.Errorf("psolve: giving up after %d restarts (%s): %w",
				stats.Restarts, stats.String(), runErr)
		}

		// Recovery: classify the damage, then repair from memory (hot
		// swap onto spares) or escalate to the disk rollback path.
		recoveryStart := time.Now()
		stats.Restarts++
		dead, injected := classifyDead(w.DeadRanks())

		if g, rec, ok := planHotSwap(store, dead, injected, sparesLeft, &opts); ok {
			resume = g
			sparesLeft -= len(dead)
			stats.HotSwaps++
			stats.SparesUsed += len(dead)
			stats.BuddyRestores += rec.BuddyRestores
			stats.Reconstructions += rec.Reconstructions
			if lost := int(maxStep.Load()) - rec.Step; lost > 0 {
				stats.LostSteps += lost
			}
			store.Invalidate(dead)
			store.Reseed(rec)
			ctl.InstantV(trace.Wall, trace.TrackCtl, "hotswap", ctl.Now(), float64(len(dead)))
			logf("supervisor: hot swap %d: ranks %v replaced by spares (%d buddy, %d parity); resuming from snapshot step %d",
				stats.HotSwaps, dead, rec.BuddyRestores, rec.Reconstructions, rec.Step)
		} else {
			// Escalate: disk rollback, optionally shrinking.
			stats.DiskRollbacks++
			nextResume := 0
			if lastGood != nil {
				nextResume = lastGood.Step()
			}
			if lost := int(maxStep.Load()) - nextResume; lost > 0 {
				stats.LostSteps += lost
			}
			rankLoss := errors.Is(cause, fault.ErrInjectedCrash) || errors.Is(cause, mpi.ErrRankDead)
			if o.AllowShrink && rankLoss && ranks > minRanks {
				ranks--
				opts.PX, opts.PY = mpi.FactorGrid(ranks, opts.GNX, opts.GNY)
				stats.Shrinks++
				ctl.InstantV(trace.Wall, trace.TrackCtl, "shrink", ctl.Now(), float64(ranks))
				logf("supervisor: shrinking recovery onto %d ranks (%d×%d)", ranks, opts.PX, opts.PY)
			}
			if store != nil {
				// The memory hierarchy is void after an escalated failure:
				// its generations may hold states from the abandoned
				// timeline (and a shrink changes the block layout). Rebuild
				// empty; coverage returns at the next snapshot wave.
				store, err = newStoreFor(&opts, ranks, groupSize)
				if err != nil {
					return nil, stats, err
				}
			}
			ctl.InstantV(trace.Wall, trace.TrackCtl, "restart", ctl.Now(), float64(nextResume))
			logf("supervisor: restart %d/%d after %v; resuming from step %d (lost %d steps)",
				stats.Restarts, o.MaxRestarts, cause, nextResume, stats.LostSteps)
		}
		stats.TimeToRecover += time.Since(recoveryStart)
		stats.Downtime += time.Since(recoveryStart)
	}
}

// superviseDrain handles cooperative shutdown: the run's context was
// canceled, so instead of restarting, preserve the newest recoverable
// state as an L4 checkpoint and report ErrCanceled. The best state is
// whichever is newer of the last verified disk checkpoint and the latest
// complete in-memory snapshot wave — the same sources the recovery paths
// trust, so a drained checkpoint is always resumable.
func superviseDrain(o *SupervisorOptions, opts Options, store *resil.Store,
	lastGood *core.Lattice, atStep int, stats *perf.RecoveryStats,
	ctl *trace.RankTracer, logf func(string, ...any)) error {
	drain := lastGood
	if store != nil {
		if rec, ok := store.LatestWave(); ok && (drain == nil || rec.Step > drain.Step()) {
			if g, aerr := resil.Assemble(rec, opts.GNX, opts.GNY, opts.GNZ,
				opts.Tau, opts.Smagorinsky, opts.Force); aerr == nil {
				drain = g
			}
		}
	}
	drainStep := 0
	if drain != nil {
		drainStep = drain.Step()
		if o.CheckpointPath != "" {
			if werr := swio.CheckpointRetry(o.CheckpointPath, drain, o.Retry); werr != nil {
				logf("supervisor: drain checkpoint at step %d failed: %v", drainStep, werr)
			} else {
				stats.CheckpointsWritten++
				logf("supervisor: drained; checkpoint at step %d written to %s", drainStep, o.CheckpointPath)
			}
		}
	}
	ctl.InstantV(trace.Wall, trace.TrackCtl, "canceled", ctl.Now(), float64(drainStep))
	return fmt.Errorf("psolve: canceled at step %d (drained at step %d): %w", atStep, drainStep, ErrCanceled)
}

// newStoreFor builds an empty snapshot store for the current layout.
func newStoreFor(opts *Options, ranks, groupSize int) (*resil.Store, error) {
	blocks, err := decomp.Decompose2D(opts.GNX, opts.GNY, opts.GNZ, opts.PX, opts.PY)
	if err != nil {
		return nil, err
	}
	return resil.NewStore(ranks, groupSize, blocks)
}

// classifyDead separates root failures from collateral ones in the
// world's death ledger. A rank that died on its own error (an injected
// crash, a solver error, a timeout) is a root death; a rank whose cause
// wraps ErrRankDead or ErrWorldDown merely tripped over someone else's
// (that includes phi-detector suspicion, which wraps ErrRankDead).
// injected reports whether every root death was an injected crash —
// the only damage class eligible for memory repair.
func classifyDead(ledger map[int]error) (dead []int, injected bool) {
	injected = true
	for r, e := range ledger {
		if e == nil {
			continue // clean exit
		}
		if errors.Is(e, mpi.ErrRankDead) || errors.Is(e, mpi.ErrWorldDown) {
			continue // collateral
		}
		dead = append(dead, r)
		if !errors.Is(e, fault.ErrInjectedCrash) {
			injected = false
		}
	}
	sort.Ints(dead)
	return dead, injected
}

// planHotSwap decides whether the failure is memory-repairable and, if
// so, assembles the recovery lattice. Two shapes qualify:
//
//   - injected rank deaths within the spare budget whose blocks the
//     store can restore (one loss per parity group, valid deposits);
//   - a world torn down with no root deaths at all (e.g. every failed
//     receive was collateral suspicion of a flapping-but-alive rank),
//     which resumes from the latest complete snapshot wave for free.
func planHotSwap(store *resil.Store, dead []int, injected bool, sparesLeft int,
	opts *Options) (*core.Lattice, *resil.Recovery, bool) {
	if store == nil || !injected {
		return nil, nil, false
	}
	if len(dead) > sparesLeft {
		return nil, nil, false
	}
	rec, ok := store.RecoveryPlan(dead)
	if !ok {
		return nil, nil, false
	}
	g, err := resil.Assemble(rec, opts.GNX, opts.GNY, opts.GNZ,
		opts.Tau, opts.Smagorinsky, opts.Force)
	if err != nil {
		return nil, nil, false
	}
	return g, rec, true
}

// superviseCheckpoint runs on rank 0 at an L4 checkpoint boundary:
// health gate, durable write (with retry), optional injected corruption,
// and read-back verification. Only a state that survives all of it
// becomes the new rollback target; a corrupted write keeps the previous
// one.
func superviseCheckpoint(o *SupervisorOptions, c *mpi.Comm, g *core.Lattice,
	store *resil.Store, stats *perf.RecoveryStats, writeAttempts *int,
	lastGood **core.Lattice, logf func(string, ...any)) error {
	tr := c.Trace()
	if _, herr := g.CheckHealth(); herr != nil {
		// Never checkpoint a diverged state — and a diverged state also
		// means the run itself is unusable: tear down and roll back
		// (after SDC the replay is clean; genuine instability exhausts
		// the restart budget instead of writing garbage).
		stats.CheckpointsRejected++
		if tr != nil {
			tr.InstantV(trace.Wall, trace.TrackCkpt, "ckpt-rejected", tr.Now(), float64(g.Step()))
		}
		err := fmt.Errorf("psolve: health gate refused checkpoint at step %d: %w", g.Step(), herr)
		c.Abort(err)
		return err
	}
	*writeAttempts++
	idx := *writeAttempts

	var restored *core.Lattice
	var diskBytes int64
	if o.CheckpointPath != "" {
		var endWrite func()
		if tr != nil {
			endWrite = tr.Scope(trace.TrackCkpt, "ckpt-write")
		}
		err := swio.CheckpointRetry(o.CheckpointPath, g, o.Retry)
		if endWrite != nil {
			endWrite()
		}
		if err != nil {
			return err
		}
		if fi, serr := os.Stat(o.CheckpointPath); serr == nil {
			diskBytes = fi.Size()
		}
		if o.Injector != nil {
			corrupted, err := o.Injector.CorruptCheckpointFile(o.CheckpointPath, idx)
			if err != nil {
				return err
			}
			if corrupted {
				logf("supervisor: fault plan corrupted checkpoint write %d", idx)
			}
		}
		var endVerify func()
		if tr != nil {
			endVerify = tr.Scope(trace.TrackCkpt, "ckpt-verify")
		}
		restored, err = swio.Restart(o.CheckpointPath)
		if endVerify != nil {
			endVerify()
		}
		if err != nil {
			stats.CheckpointsRejected++
			if tr != nil {
				tr.InstantV(trace.Wall, trace.TrackCkpt, "ckpt-rejected", tr.Now(), float64(idx))
			}
			logf("supervisor: checkpoint %d failed verification (%v); keeping step-%d rollback target",
				idx, err, lastGoodStep(*lastGood))
			return nil
		}
	} else {
		var buf bytes.Buffer
		var endWrite func()
		if tr != nil {
			endWrite = tr.Scope(trace.TrackCkpt, "ckpt-write")
		}
		err := swio.WriteCheckpoint(&buf, g)
		if endWrite != nil {
			endWrite()
		}
		if err != nil {
			return err
		}
		data := buf.Bytes()
		diskBytes = int64(len(data))
		if o.Injector != nil && o.Injector.CorruptCheckpointBytes(data, idx) {
			logf("supervisor: fault plan corrupted in-memory checkpoint %d", idx)
		}
		var endVerify func()
		if tr != nil {
			endVerify = tr.Scope(trace.TrackCkpt, "ckpt-verify")
		}
		restored, err = swio.ReadCheckpoint(bytes.NewReader(data))
		if endVerify != nil {
			endVerify()
		}
		if err != nil {
			stats.CheckpointsRejected++
			if tr != nil {
				tr.InstantV(trace.Wall, trace.TrackCkpt, "ckpt-rejected", tr.Now(), float64(idx))
			}
			logf("supervisor: checkpoint %d failed verification (%v); keeping step-%d rollback target",
				idx, err, lastGoodStep(*lastGood))
			return nil
		}
	}
	*lastGood = restored
	stats.CheckpointsWritten++
	if store != nil {
		store.AccountDisk(diskBytes)
	}
	if tr != nil {
		tr.InstantV(trace.Wall, trace.TrackCkpt, "ckpt-accepted", tr.Now(), float64(g.Step()))
	}
	return nil
}

func lastGoodStep(l *core.Lattice) int {
	if l == nil {
		return 0
	}
	return l.Step()
}
