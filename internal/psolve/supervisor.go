package psolve

// The recovery ladder: the self-healing supervisor around the §IV-B
// checkpoint/restart controller, over the multi-level in-memory
// checkpoint hierarchy of internal/resil. It drives any Decomposition —
// the rank world of this package, its one-rank world (Local), or the
// patch world of internal/patch.
//
// A supervised run takes two kinds of state copies: periodic in-memory
// snapshot waves (L1 own copy, L2 buddy copy, L3 XOR parity — cheap,
// every few steps) and periodic health-gated, read-back-verified
// checkpoints (L4 — expensive, rare). On a failure the ladder classifies
// the damage and takes the first rung that applies:
//
//  1. the run's context was canceled: drain — write the newest
//     recoverable state to CheckpointPath and stop;
//  2. only injected rank deaths (or none at all) and the store can plan
//     them: repair from memory — the decomposition re-homes the dead
//     ranks' blocks, onto spares or onto the survivors, and the run
//     resumes from that snapshot wave, with no disk access and at most
//     SnapshotEvery-1 steps to replay;
//  3. roll back to the last verified L4 checkpoint;
//  4. restart from step 0.
//
// Rungs 3 and 4 keep the world size unless AllowShrink is set and a rank
// was lost. Because the solver is deterministic, every rung ends
// bit-identical to a fault-free run.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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

// ErrDiverged reports a run that finished with a non-finite density or
// velocity on a fluid cell of its final field: the solver went unstable.
// That is a property of the case, not of the ranks, so the ladder returns
// it at once instead of retrying, and a service fails the job with it.
var ErrDiverged = errors.New("psolve: run diverged")

// diverged is the error of a run whose final state holds n non-finite
// cells of cells at step.
func diverged(n, cells, step int) error {
	return fmt.Errorf("psolve: %d of %d cells of the final state at step %d hold a non-finite density or velocity: %w",
		n, cells, step, ErrDiverged)
}

// SupervisorOptions configures a supervised distributed run. The zero
// value of every policy field is the default of both decompositions.
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
	// Opts is the base solver configuration of Supervise's rank world.
	// With any decomposition, Opts.Restore, if set, seeds the
	// supervisor's last-good state (resume + rollback base) and
	// Opts.Trace records the worlds' timelines.
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
	// rank-death failure (shrinking recovery), down to one rank.
	AllowShrink bool
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
	// Levels selects the active checkpoint levels. Zero means L4 only
	// (disk only); resil.L1|resil.L2|resil.L3|resil.L4 enables the full
	// hierarchy.
	Levels resil.Levels
	// GroupSize is the parity-group size (default 4): contiguous holder
	// intervals whose members buddy and parity-protect each other. Any
	// single loss per group is memory-repairable.
	GroupSize int
	// SpareRanks is the hot-swap budget of a rank world: how many dead
	// ranks may be replaced by spares (world size preserved) before rank
	// loss escalates to the disk path. A patch world re-homes onto its
	// survivors instead and needs no spares.
	SpareRanks int
	// Detector selects failure detection: "deadline" (default, the PR 1
	// fixed receive deadline) or "phi" (heartbeat-driven phi-accrual
	// suspicion with the deadline kept as a last resort).
	Detector string
	// StragglerWallDelay, when > 0, makes injected stragglers actually
	// sleep (factor−1)×delay per step on the wall clock — so detector
	// tests exercise real slowness, not just the performance model.
	StragglerWallDelay time.Duration
}

// Decomposition is one way of laying the global lattice over the ranks
// of a world: what the recovery ladder needs of it, and nothing more.
// The ladder calls it between attempts, never while ranks run.
type Decomposition interface {
	// Ranks is the world size of the next attempt.
	Ranks() int
	// NewStore lays an empty snapshot store over the decomposition's
	// block holders (ranks, or patch IDs) in parity groups of groupSize.
	NewStore(groupSize int) (*resil.Store, error)
	// NewRank builds rank c's share of an attempt that resumes from
	// restore, or from the case's initial state when restore is nil, and
	// runs to step steps. straggle is the rank's injected straggler factor
	// (1 = nominal).
	NewRank(c *mpi.Comm, restore *core.Lattice, steps int, straggle float64) (Rank, error)
	// Assemble places a recovery's blocks into one global lattice.
	Assemble(rec *resil.Recovery) (*core.Lattice, error)
	// Rehome is the memory rung: given the ranks that died, it finds a
	// snapshot wave in st that covers their blocks, moves the blocks to
	// new homes for the next attempt — onto at most spares spare ranks,
	// or onto the surviving ranks — and returns the wave plus the holders
	// whose memory died with the ranks. ok is false when memory cannot
	// repair the loss; nothing moves then.
	Rehome(st *resil.Store, dead []int, spares int) (rec *resil.Recovery, lost []int, ok bool)
	// Restart lays the blocks out afresh for an escalated attempt, on one
	// rank fewer when shrink is set.
	Restart(dead []int, shrink bool)
}

// Rank is one rank's share of an attempt; *Solver is the rank world's. A
// rank that holds resources also implements io.Closer: the ladder closes
// it when the rank's body ends, however it ends.
type Rank interface {
	// Step advances the rank's blocks one time step.
	Step()
	// ResilCapture deposits the rank's share of a snapshot wave.
	ResilCapture(st *resil.Store, levels resil.Levels) error
	// GatherLattice assembles the global lattice on root (nil elsewhere).
	GatherLattice(root int) (*core.Lattice, error)
	// GatherMacro assembles the global macroscopic field on root (nil
	// elsewhere).
	GatherMacro(root int) *core.MacroField
}

// rankWorld is this package's decomposition: one block of the 2-D
// process grid per rank. The holders are the ranks themselves, so a dead
// rank's block re-homes onto a spare that takes over its rank.
type rankWorld struct{ opts Options }

// NewRanks lays opts' lattice over its PX×PY process grid (one rank when
// either is zero). opts.Restore is ignored: the ladder's restore seed is
// SupervisorOptions.Opts.Restore.
func NewRanks(opts Options) Decomposition {
	if opts.PX == 0 || opts.PY == 0 {
		opts.PX, opts.PY = mpi.FactorGrid(1, opts.GNX, opts.GNY)
	}
	opts.Restore = nil
	return &rankWorld{opts}
}

func (w *rankWorld) Ranks() int { return w.opts.PX * w.opts.PY }

func (w *rankWorld) NewStore(groupSize int) (*resil.Store, error) {
	blocks, err := decomp.Decompose2D(w.opts.GNX, w.opts.GNY, w.opts.GNZ, w.opts.PX, w.opts.PY)
	if err != nil {
		return nil, err
	}
	return resil.NewStore(len(blocks), groupSize, blocks)
}

func (w *rankWorld) NewRank(c *mpi.Comm, restore *core.Lattice, _ int, straggle float64) (Rank, error) {
	opts := w.opts
	opts.Restore = restore
	s, err := New(c, opts)
	if err != nil {
		return nil, err
	}
	// Straggler injection slows the performance model: the factor
	// inflates the Sim-clock step spans so the trace analysis sees the
	// slow rank.
	s.StragglerFactor = straggle
	return s, nil
}

func (w *rankWorld) Assemble(rec *resil.Recovery) (*core.Lattice, error) {
	o := &w.opts
	return resil.Assemble(rec, o.GNX, o.GNY, o.GNZ, o.Tau, o.Smagorinsky, o.Force)
}

func (w *rankWorld) Rehome(st *resil.Store, dead []int, spares int) (*resil.Recovery, []int, bool) {
	if len(dead) > spares {
		return nil, nil, false
	}
	rec, ok := st.RecoveryPlan(dead)
	return rec, dead, ok
}

func (w *rankWorld) Restart(_ []int, shrink bool) {
	if shrink {
		w.opts.PX, w.opts.PY = mpi.FactorGrid(w.Ranks()-1, w.opts.GNX, w.opts.GNY)
	}
}

// Supervise runs a distributed simulation on the rank world of o.Opts to
// completion under the recovery ladder and returns the gathered global
// field plus recovery metrics. The returned error is non-nil only when
// the restart budget is exhausted or the configuration is unusable.
func Supervise(o SupervisorOptions) (*core.MacroField, perf.RecoveryStats, error) {
	return SuperviseOn(NewRanks(o.Opts), o)
}

// SetPolicy parses a fault plan (fault.ParsePlan; empty means no
// injector) and the checkpoint levels (resil.ParseLevels; empty means disk
// only) into o, refusing a plan that names a rank outside a world of the
// given size: a fault aimed at a missing rank would never fire.
func (o *SupervisorOptions) SetPolicy(plan, levels string, ranks int) error {
	o.Injector = nil
	if plan != "" {
		p, err := fault.ParsePlan(plan)
		if err != nil {
			return err
		}
		if err := p.Validate(ranks); err != nil {
			return err
		}
		o.Injector = fault.NewInjector(p)
	}
	l, err := resil.ParseLevels(levels)
	o.Levels = l
	return err
}

// SuperviseOn runs a simulation laid out by d to completion under the
// recovery ladder; see Supervise.
func SuperviseOn(d Decomposition, o SupervisorOptions) (field *core.MacroField, stats perf.RecoveryStats, err error) {
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if o.Steps < 0 {
		return nil, stats, fmt.Errorf("psolve: supervisor needs Steps ≥ 0")
	}
	levels := o.Levels
	if levels == 0 {
		levels = resil.L4 // disk only
	}
	groupSize := o.GroupSize
	if groupSize < 1 {
		groupSize = 4
	}
	// lastGood is the L4 rollback target: only ever a state that passed
	// the health gate and read back through CRC validation (or the
	// caller's explicit restore seed).
	lastGood := o.Opts.Restore
	writeAttempts := 0 // checkpoint writes across all attempts (1-based index for fault plans)
	sparesLeft := o.SpareRanks

	// store models every holder's local memory for the L1–L3 hierarchy.
	var store *resil.Store
	if levels.Memory() && o.SnapshotEvery > 0 {
		if store, err = d.NewStore(groupSize); err != nil {
			return nil, stats, err
		}
	}
	defer func() {
		if store != nil {
			stats.SnapshotBytes = store.Bytes()
			stats.SnapshotResidentLevels, _ = store.ResidentByLevel()
			stats.SnapshotResident = store.Resident()
		}
	}()
	if o.Injector != nil {
		o.Injector.ExpandGroups(groupSize, d.Ranks())
		o.Injector.SetTracer(o.Opts.Trace)
	}
	// resume, when non-nil, is a one-shot memory-recovery state that
	// overrides lastGood for exactly the next attempt.
	var resume *core.Lattice

	// ctl is the control-plane timeline: restarts, swaps and attempt
	// markers live on the supervisor pseudo-rank, not on any solver rank.
	ctl := o.Opts.Trace.ForRank(trace.RankSupervisor)

	for attempt := 0; ; attempt++ {
		ctl.InstantV(trace.Wall, trace.TrackCtl, "attempt", ctl.Now(), float64(attempt))
		if o.Injector != nil {
			o.Injector.BeginAttempt()
		}
		w, werr := o.newWorld(d.Ranks())
		if werr != nil {
			return nil, stats, werr
		}
		restore := lastGood
		if resume != nil {
			restore, resume = resume, nil
		}
		resumeStep := 0
		if restore != nil {
			resumeStep = restore.Step()
		}

		var result *core.MacroField
		var stopped *core.Lattice // a lone rank's state when it was canceled
		var maxStep atomic.Int64
		maxStep.Store(int64(resumeStep))

		body := func(c *mpi.Comm) error {
			straggle := 1.0
			if o.Injector != nil {
				straggle = o.Injector.StragglerFactor(c.Rank())
			}
			r, err := d.NewRank(c, restore, o.Steps, straggle)
			if err != nil {
				return err
			}
			if cl, ok := r.(io.Closer); ok {
				defer cl.Close()
			}
			for step := resumeStep; step < o.Steps; step++ {
				// Step-boundary cancellation check: the watcher goroutine
				// below wakes blocked receives, but a rank deep in compute
				// only observes cancellation here.
				if o.Ctx != nil && o.Ctx.Err() != nil {
					if c.Size() == 1 {
						// A lone rank stops on a step boundary with its
						// state whole: the drain can keep this very step.
						stopped, _ = r.GatherLattice(0)
					}
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
				// With StragglerWallDelay an injected straggler also slows
				// the host wall clock, which is what the failure detector
				// observes.
				if o.StragglerWallDelay > 0 && straggle > 1 {
					time.Sleep(time.Duration(float64(o.StragglerWallDelay) * (straggle - 1)))
				}
				r.Step()
				done := step + 1
				for cur := maxStep.Load(); int64(done) > cur && !maxStep.CompareAndSwap(cur, int64(done)); {
					cur = maxStep.Load()
				}
				if store != nil && done%o.SnapshotEvery == 0 && done < o.Steps {
					t0 := time.Now()
					if serr := r.ResilCapture(store, levels); serr != nil {
						return serr
					}
					if c.Rank() == 0 {
						d := time.Since(t0)
						if stats.SnapshotWaves == 0 {
							stats.SnapshotFirst = d
						}
						stats.SnapshotWaves++
						stats.SnapshotTime += d
					}
				}
				if levels.Has(resil.L4) && o.CheckpointEvery > 0 &&
					done%o.CheckpointEvery == 0 && done < o.Steps {
					// Collective: every rank gathers, root validates and
					// publishes while the others proceed.
					var g *core.Lattice
					var gerr error
					func() {
						// Deferred close: a collective aborted by a
						// dead peer must still nest its span.
						defer c.Trace().Scope(trace.TrackCkpt, "ckpt-gather")()
						g, gerr = r.GatherLattice(0)
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
			if g := r.GatherMacro(0); g != nil {
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
			// One pass over the gathered field; the one-rank world checks
			// the lattice it keeps instead (localRank.GatherMacro).
			if n := result.NonFinite(); n > 0 {
				return nil, stats, diverged(n, len(result.Rho), o.Steps)
			}
			return result, stats, nil
		}
		if errors.Is(runErr, ErrDiverged) {
			return nil, stats, runErr
		}
		if o.Ctx != nil && o.Ctx.Err() != nil {
			return nil, stats, superviseDrain(&o, d, store, lastGood, stopped, int(maxStep.Load()), &stats, ctl, logf)
		}
		cause := w.FailureCause()
		if cause == nil {
			cause = runErr
		}
		if attempt >= o.MaxRestarts {
			return nil, stats, fmt.Errorf("psolve: giving up after %d restarts (%s): %w",
				stats.Restarts, stats.String(), runErr)
		}

		// Recovery: classify the damage, then repair from memory or
		// escalate to the disk rollback path.
		recoveryStart := time.Now()
		stats.Restarts++
		dead, injected := classifyDead(w.DeadRanks())
		ranks := d.Ranks()
		var rec *resil.Recovery
		var lost []int
		hot := false
		if store != nil && injected {
			rec, lost, hot = d.Rehome(store, dead, sparesLeft)
		}
		if hot {
			if resume, err = d.Assemble(rec); err != nil {
				return nil, stats, err
			}
			// Dead ranks the world did not drop were replaced by spares.
			spent := len(dead) - (ranks - d.Ranks())
			sparesLeft -= spent
			stats.HotSwaps++
			stats.SparesUsed += spent
			stats.BuddyRestores += rec.BuddyRestores
			stats.Reconstructions += rec.Reconstructions
			if lostSteps := int(maxStep.Load()) - rec.Step; lostSteps > 0 {
				stats.LostSteps += lostSteps
			}
			store.Invalidate(lost)
			store.Reseed(rec)
			ctl.InstantV(trace.Wall, trace.TrackCtl, "hotswap", ctl.Now(), float64(len(dead)))
			logf("supervisor: hot swap %d: blocks of ranks %v re-homed onto %d ranks (%d buddy, %d parity); resuming from snapshot step %d",
				stats.HotSwaps, dead, d.Ranks(), rec.BuddyRestores, rec.Reconstructions, rec.Step)
		} else {
			// Escalate: disk rollback, optionally shrinking.
			stats.DiskRollbacks++
			nextResume := lastGoodStep(lastGood)
			if lostSteps := int(maxStep.Load()) - nextResume; lostSteps > 0 {
				stats.LostSteps += lostSteps
			}
			rankLoss := errors.Is(cause, fault.ErrInjectedCrash) || errors.Is(cause, mpi.ErrRankDead)
			shrink := o.AllowShrink && rankLoss && ranks > 1
			d.Restart(dead, shrink)
			if shrink {
				stats.Shrinks++
				ctl.InstantV(trace.Wall, trace.TrackCtl, "shrink", ctl.Now(), float64(d.Ranks()))
				logf("supervisor: shrinking recovery onto %d ranks", d.Ranks())
			}
			if store != nil {
				// The memory hierarchy is void after an escalated failure:
				// its generations may hold states from the abandoned
				// timeline (and a shrink changes the block layout). Rebuild
				// empty; coverage returns at the next snapshot wave.
				if store, err = d.NewStore(groupSize); err != nil {
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

// newWorld sets up one attempt's world: tracer, panic containment, fault
// hook, receive deadline and failure detector.
func (o *SupervisorOptions) newWorld(ranks int) (*mpi.World, error) {
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	w.SetTracer(o.Opts.Trace)
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
		w.SetDetector(mpi.NewPhiDetector())
	}
	return w, nil
}

// superviseDrain handles cooperative shutdown: the run's context was
// canceled, so instead of restarting, preserve the newest recoverable
// state as an L4 checkpoint and report ErrCanceled. The best state is
// the newest of the last verified disk checkpoint, the latest complete
// in-memory snapshot wave — the same sources the recovery paths trust —
// and the state a one-rank world stopped at, if it passes the health
// gate; so a drained checkpoint is always resumable.
func superviseDrain(o *SupervisorOptions, d Decomposition, store *resil.Store,
	lastGood, stopped *core.Lattice, atStep int, stats *perf.RecoveryStats,
	ctl *trace.RankTracer, logf func(string, ...any)) error {
	drain := lastGood
	if store != nil {
		if rec, ok := store.LatestWave(); ok && (drain == nil || rec.Step > drain.Step()) {
			if g, aerr := d.Assemble(rec); aerr == nil {
				drain = g
			}
		}
	}
	if stopped != nil && stopped.Step() > lastGoodStep(drain) {
		if _, herr := stopped.CheckHealth(); herr == nil {
			drain = stopped
		}
	}
	drainStep := lastGoodStep(drain)
	if drain != nil && o.CheckpointPath != "" {
		if werr := swio.CheckpointRetry(o.CheckpointPath, drain, o.Retry); werr != nil {
			logf("supervisor: drain checkpoint at step %d failed: %v", drainStep, werr)
		} else {
			stats.CheckpointsWritten++
			logf("supervisor: drained; checkpoint at step %d written to %s", drainStep, o.CheckpointPath)
		}
	}
	ctl.InstantV(trace.Wall, trace.TrackCtl, "canceled", ctl.Now(), float64(drainStep))
	return fmt.Errorf("psolve: canceled at step %d (drained at step %d): %w", atStep, drainStep, ErrCanceled)
}

// classifyDead separates root failures from collateral ones in the
// world's death ledger. A rank that died on its own error (an injected
// crash, a solver error, a timeout) is a root death; a rank whose cause
// wraps ErrRankDead or ErrWorldDown merely tripped over someone else's
// (that includes phi-detector suspicion, which wraps ErrRankDead), and a
// rank that refused a halo face corrupted in flight (ErrHaloCorrupt)
// still holds an intact block. injected reports whether every root death
// was an injected crash — the only damage class eligible for memory
// repair.
func classifyDead(ledger map[int]error) (dead []int, injected bool) {
	injected = true
	for r, e := range ledger {
		if e == nil {
			continue // clean exit
		}
		if errors.Is(e, mpi.ErrRankDead) || errors.Is(e, mpi.ErrWorldDown) || errors.Is(e, ErrHaloCorrupt) {
			continue // collateral, or a fault of the link rather than the rank
		}
		dead = append(dead, r)
		if !errors.Is(e, fault.ErrInjectedCrash) {
			injected = false
		}
	}
	sort.Ints(dead)
	return dead, injected
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
		tr.InstantV(trace.Wall, trace.TrackCkpt, "ckpt-rejected", tr.Now(), float64(g.Step()))
		err := fmt.Errorf("psolve: health gate refused checkpoint at step %d: %w", g.Step(), herr)
		c.Abort(err)
		return err
	}
	*writeAttempts++
	idx := *writeAttempts

	// Write (to the file, or to memory without one), let the fault plan
	// corrupt the write, and read it back.
	var restored *core.Lattice
	var size int64
	endWrite := tr.Scope(trace.TrackCkpt, "ckpt-write")
	if o.CheckpointPath != "" {
		err := swio.CheckpointRetry(o.CheckpointPath, g, o.Retry)
		endWrite()
		if err != nil {
			return err
		}
		if fi, serr := os.Stat(o.CheckpointPath); serr == nil {
			size = fi.Size()
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
		defer tr.Scope(trace.TrackCkpt, "ckpt-verify")()
		restored, err = swio.Restart(o.CheckpointPath)
		if err != nil {
			rejectCheckpoint(tr, stats, idx, err, *lastGood, logf)
			return nil
		}
	} else {
		var buf bytes.Buffer
		err := swio.WriteCheckpoint(&buf, g)
		endWrite()
		if err != nil {
			return err
		}
		data := buf.Bytes()
		size = int64(len(data))
		if o.Injector != nil && o.Injector.CorruptCheckpointBytes(data, idx) {
			logf("supervisor: fault plan corrupted in-memory checkpoint %d", idx)
		}
		defer tr.Scope(trace.TrackCkpt, "ckpt-verify")()
		restored, err = swio.ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			rejectCheckpoint(tr, stats, idx, err, *lastGood, logf)
			return nil
		}
	}
	*lastGood = restored
	stats.CheckpointsWritten++
	if store != nil {
		store.AccountDisk(size)
	}
	tr.InstantV(trace.Wall, trace.TrackCkpt, "ckpt-accepted", tr.Now(), float64(g.Step()))
	return nil
}

// rejectCheckpoint records a write that failed its read-back: the run
// goes on, keeping the previous rollback target.
func rejectCheckpoint(tr *trace.RankTracer, stats *perf.RecoveryStats, idx int, err error,
	lastGood *core.Lattice, logf func(string, ...any)) {
	stats.CheckpointsRejected++
	tr.InstantV(trace.Wall, trace.TrackCkpt, "ckpt-rejected", tr.Now(), float64(idx))
	logf("supervisor: checkpoint %d failed verification (%v); keeping step-%d rollback target",
		idx, err, lastGoodStep(lastGood))
}

func lastGoodStep(l *core.Lattice) int {
	if l == nil {
		return 0
	}
	return l.Step()
}
