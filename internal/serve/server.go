package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sunwaylb/internal/perf"
	"sunwaylb/internal/swio"
	"sunwaylb/internal/trace"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the shared worker-slot pool: at most this many jobs run
	// concurrently across all shards (default 2).
	Workers int
	// Shards is the number of scheduler shards; tenants map to shards by
	// stable hash, so one tenant's queue churn never contends with
	// another shard's lock (default 2).
	Shards int
	// QueuePerTenant bounds each tenant's admission queue (default 16).
	QueuePerTenant int
	// MaxQueued caps queued jobs across all tenants; past it, admission
	// sheds the lowest-priority queued job to make room for a
	// higher-priority submit, and otherwise rejects with ErrQueueFull
	// (default Shards × QueuePerTenant).
	MaxQueued int
	// TenantWeights sets WRR dequeue weights (missing tenants weigh 1).
	TenantWeights map[string]int
	// DataDir holds the job journal and per-job drain checkpoints
	// (required).
	DataDir string
	// DefaultTimeout bounds jobs that set no timeout_sec (default 10 min).
	DefaultTimeout time.Duration
	// Retry is the backoff policy for re-queueing jobs killed by worker
	// loss (zero = swio defaults; the seed is re-derived per job).
	Retry swio.RetryPolicy
	// TraceBuf bounds the service tracer's per-rank ring buffer so an
	// always-on daemon's telemetry memory is O(1) (default 4096).
	TraceBuf int
	// Logf receives service diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) norm() error {
	if c.DataDir == "" {
		return errors.New("serve: Config.DataDir is required")
	}
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.Shards < 1 {
		c.Shards = 2
	}
	if c.QueuePerTenant < 1 {
		c.QueuePerTenant = 16
	}
	if c.MaxQueued < 1 {
		c.MaxQueued = c.Shards * c.QueuePerTenant
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Minute
	}
	if c.TraceBuf < 1 {
		c.TraceBuf = 4096
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// ErrDraining rejects submissions while the daemon is shutting down.
var ErrDraining = errors.New("serve: draining, not admitting new jobs")

// errTenantCanceled is the cancellation cause of a DELETE /jobs/{id}.
var errTenantCanceled = errors.New("serve: canceled by tenant")

// errDrainStop is the cancellation cause of a graceful drain.
var errDrainStop = errors.New("serve: daemon draining")

// errKilled is the cancellation cause of a hard stop (crash simulation).
var errKilled = errors.New("serve: daemon killed")

// shard is one scheduler lane: its own admission controller and wake
// signal. Tenants are hashed onto shards, so per-shard lock contention
// is bounded by the tenants that share the shard, not the whole fleet.
type shard struct {
	idx  int
	adm  *admission
	wake chan struct{}
}

// Server is the lbmserve daemon: job table, sharded scheduler, shared
// worker pool, journal and metrics.
type Server struct {
	cfg    Config
	logf   func(string, ...any)
	tracer *trace.Tracer
	ctl    *trace.RankTracer

	journal  *journal
	replayed int

	pool   chan struct{} // worker slots: send = lease, receive = release
	shards []*shard

	rootCtx    context.Context
	rootCancel context.CancelCauseFunc
	wg         sync.WaitGroup

	draining atomic.Bool
	killed   atomic.Bool

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int
	// Fleet counters (under mu).
	submitted, completed, failed, canceled, shed, rejected int64
	running                                                int
	agg                                                    perf.RecoveryStats
	latency                                                *perf.Monitor
	// Patch-mode gauges (under mu): accumulated across every
	// patch-decomposed job that produced stats.
	patchJobs, patchMigrations, patchRebalances int64
	patchLastImbalance                          float64
	patchPerOwner                               []int
}

// NewServer builds a daemon over DataDir, replaying any existing journal:
// jobs that were queued or running when the previous process died are
// re-admitted and run again (resuming from their drain checkpoint when
// one exists).
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.norm(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating data dir: %w", err)
	}
	jpath := filepath.Join(cfg.DataDir, "jobs.journal")
	pending, replayed, err := replayJournal(jpath)
	if err != nil {
		return nil, err
	}
	jl, err := openJournal(jpath)
	if err != nil {
		return nil, err
	}

	tracer := trace.New(trace.Options{MaxEventsPerRank: cfg.TraceBuf})
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		logf:       cfg.Logf,
		tracer:     tracer,
		ctl:        tracer.ForRank(trace.RankService),
		journal:    jl,
		replayed:   replayed,
		pool:       make(chan struct{}, cfg.Workers),
		rootCtx:    ctx,
		rootCancel: cancel,
		jobs:       make(map[string]*Job),
		latency:    perf.NewMonitor(0),
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{
			idx:  i,
			adm:  newAdmission(cfg.QueuePerTenant, cfg.TenantWeights),
			wake: make(chan struct{}, 1),
		})
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.shardLoop(sh)
	}
	// Re-admit interrupted work under its original IDs (drain checkpoints
	// are keyed by ID). Journal records already exist for these jobs, so
	// enqueueJob is told not to append fresh submit records; the ID
	// counter is advanced past every replayed ID first.
	for i := range pending {
		var n int
		if _, serr := fmt.Sscanf(pending[i].ID, "j%06d", &n); serr == nil && n > s.nextID {
			s.nextID = n
		}
	}
	for i := range pending {
		if _, rerr := s.enqueueJob(pending[i].Spec, pending[i].ID); rerr != nil {
			s.logf("serve: journal replay: dropping job %s (%q): %v",
				pending[i].ID, pending[i].Spec.Case.Name, rerr)
		}
	}
	if replayed > 0 {
		s.logf("serve: journal replay: %d records, %d jobs re-admitted", replayed, len(pending))
	}
	return s, nil
}

// shardFor maps a tenant to its scheduler shard by stable hash.
func (s *Server) shardFor(tenant string) *shard {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// Submit admits a job: validate, journal, enqueue, wake the shard.
// Under overload it either sheds strictly-lower-priority queued work to
// make room or rejects with ErrQueueFull.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	return s.enqueueJob(spec, "")
}

// enqueueJob admits a job. A non-empty replayID re-admits a journaled
// job under its original ID (no fresh submit record); empty allocates
// the next ID and journals the submission.
func (s *Server) enqueueJob(spec JobSpec, replayID string) (*Job, error) {
	px, py, err := spec.normalize()
	if err != nil {
		s.bumpRejected()
		return nil, err
	}

	id := replayID
	if id == "" {
		s.mu.Lock()
		s.nextID++
		id = fmt.Sprintf("j%06d", s.nextID)
		s.mu.Unlock()
	}

	j := &Job{
		ID:        id,
		Spec:      spec,
		px:        px,
		py:        py,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	// The deadline covers the job's whole life — queue wait plus run —
	// so a queue stuck behind slow work cannot silently starve a job
	// past the point its tenant stopped caring.
	timeout := time.Duration(spec.TimeoutSec * float64(time.Second))
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	j.deadline = j.submitted.Add(timeout)

	// Global cap with graceful degradation: shed the cheapest queued job
	// if — and only if — it is strictly lower priority than the new one.
	if s.queuedTotal() >= s.cfg.MaxQueued {
		if victim := s.shedBelow(spec.Priority); victim != nil {
			s.finishJob(victim, StateShed, "shed under overload for higher-priority work", perf.RecoveryStats{})
			s.logf("serve: shed %s (tenant %s, priority %d) for incoming priority %d",
				victim.ID, victim.Spec.Tenant, victim.Spec.Priority, spec.Priority)
		} else {
			s.bumpRejected()
			return nil, fmt.Errorf("%w: %d jobs queued (cap %d), nothing cheaper to shed",
				ErrQueueFull, s.queuedTotal(), s.cfg.MaxQueued)
		}
	}

	if replayID == "" {
		if jerr := s.journal.append(journalEntry{Op: "submit", ID: id, Spec: &spec}); jerr != nil {
			s.bumpRejected()
			return nil, jerr
		}
	}
	sh := s.shardFor(spec.Tenant)
	if aerr := sh.adm.submit(j); aerr != nil {
		// Close the journal record so replay does not resurrect it.
		s.journal.append(journalEntry{Op: "shed", ID: id, Err: aerr.Error()})
		s.bumpRejected()
		return nil, aerr
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.submitted++
	s.mu.Unlock()
	s.ctl.InstantV(trace.Wall, trace.TrackServe, "job-submit", s.ctl.Now(), float64(j.Spec.Priority))
	s.ctl.Counter(trace.Wall, trace.TrackServe, "queued", s.ctl.Now(), float64(s.queuedTotal()))
	wakeShard(sh)
	return j, nil
}

func wakeShard(sh *shard) {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

func (s *Server) bumpRejected() {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
}

// queuedTotal sums queue depth across shards.
func (s *Server) queuedTotal() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.adm.size()
	}
	return n
}

// shedBelow removes the globally lowest-priority queued job if its
// priority is strictly below p.
func (s *Server) shedBelow(p int) *Job {
	// Two-phase across shards: shed per shard, keep the cheapest, put
	// the others back. Shards are few; jobs move, never vanish.
	var victims []*Job
	for _, sh := range s.shards {
		if v := sh.adm.shedLowest(); v != nil {
			victims = append(victims, v)
		}
	}
	var cheapest *Job
	for _, v := range victims {
		if cheapest == nil || v.Spec.Priority < cheapest.Spec.Priority ||
			(v.Spec.Priority == cheapest.Spec.Priority && v.submitted.After(cheapest.submitted)) {
			cheapest = v
		}
	}
	for _, v := range victims {
		if v != cheapest {
			s.shardFor(v.Spec.Tenant).adm.requeueFront(v)
		}
	}
	if cheapest == nil || cheapest.Spec.Priority >= p {
		if cheapest != nil {
			s.shardFor(cheapest.Spec.Tenant).adm.requeueFront(cheapest)
		}
		return nil
	}
	return cheapest
}

// RetryAfter estimates (in whole seconds, ≥ 1) when a rejected submit is
// worth retrying: the current backlog divided by the worker pool.
func (s *Server) RetryAfter() int {
	sec := 1 + s.queuedTotal()/s.cfg.Workers
	return sec
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns a snapshot of every job's status, newest first.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Snapshot())
	}
	// Deterministic order: by ID (IDs are zero-padded sequence numbers).
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].ID < out[k-1].ID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// Cancel cancels a job: a queued job (in its shard's queue, waiting for
// a worker slot, or in retry backoff) is finished directly; a running
// job's context is canceled and its supervisor drains a checkpoint
// before it finishes. Unknown or already-finished jobs report false.
func (s *Server) Cancel(id string) (bool, error) {
	j, ok := s.Job(id)
	if !ok {
		return false, nil
	}
	j.mu.Lock()
	terminal := j.state.terminal()
	cancel := j.cancel
	j.mu.Unlock()
	switch {
	case terminal:
		return false, nil
	case cancel != nil:
		// Running: the runner observes ErrCanceled and finishes it.
		cancel(errTenantCanceled)
		return true, nil
	default:
		// Queued in any of its forms. Best-effort dequeue; if the job is
		// in slot-wait limbo or retry backoff instead, the terminal
		// state makes the scheduler skip it when it resurfaces.
		s.shardFor(j.Spec.Tenant).adm.remove(id)
		s.finishJob(j, StateCanceled, "canceled while queued", perf.RecoveryStats{})
		return true, nil
	}
}

// finishJob moves a job to a terminal state, updates fleet accounting
// and appends the journal record. Safe to call from any goroutine;
// first terminal transition wins.
func (s *Server) finishJob(j *Job, state JobState, errMsg string, stats perf.RecoveryStats) {
	j.mu.Lock()
	j.stats = stats
	j.mu.Unlock()
	if !j.finish(state, errMsg) {
		return
	}
	var op string
	switch state {
	case StateDone:
		op = "done"
	case StateFailed:
		op = "fail"
	case StateCanceled:
		op = "cancel"
	case StateShed:
		op = "shed"
	}
	// A kill (crash simulation) and a drain both leave interrupted jobs
	// open in the journal on purpose: replay re-admits them.
	interrupted := (state == StateCanceled) && (s.killed.Load() || s.draining.Load())
	if !interrupted && !s.killed.Load() {
		s.journal.append(journalEntry{Op: op, ID: j.ID, Err: errMsg})
	}
	s.mu.Lock()
	switch state {
	case StateDone:
		s.completed++
	case StateFailed:
		s.failed++
	case StateCanceled:
		s.canceled++
	case StateShed:
		s.shed++
	}
	s.agg.Merge(stats)
	j.mu.Lock()
	if !j.started.IsZero() && !j.finished.IsZero() {
		s.latency.Record(j.finished.Sub(j.started).Seconds())
	}
	j.mu.Unlock()
	s.mu.Unlock()
	s.ctl.Instant(trace.Wall, trace.TrackServe, "job-"+string(state), s.ctl.Now())
	// Wake waiters last: anyone unblocked by Done() sees the fleet
	// counters already including this job.
	close(j.done)
}

// Drain is graceful shutdown: stop admitting, cancel running jobs (each
// supervisor preserves a drain checkpoint through the L1–L4 hierarchy),
// wait for every worker to exit, and close the journal. Interrupted
// jobs stay open in the journal, so the next start resumes them. The
// context bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.logf("serve: draining: %d queued, %d running", s.queuedTotal(), s.Running())
	s.rootCancel(errDrainStop)
	waitDone := make(chan struct{})
	// The waiter is bounded: rootCancel above stops every worker the wg
	// counts, so wg.Wait returns; if one wedges anyway the goroutine is
	// the process's last — Drain returns via ctx.Done and the daemon exits.
	go func() { s.wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-ctx.Done():
		s.journal.close()
		return fmt.Errorf("serve: drain timed out with %d jobs still running: %w", s.Running(), ctx.Err())
	}
	err := s.journal.close()
	s.logf("serve: drained cleanly")
	return err
}

// Kill is the crash simulation used by restart tests: hard-stop the
// scheduler and running jobs without journaling any terminal records —
// exactly what a SIGKILL'd daemon leaves behind. The journal file is
// closed (the OS would have done it) and the in-memory state abandoned.
func (s *Server) Kill() {
	if !s.killed.CompareAndSwap(false, true) {
		return
	}
	s.draining.Store(true) // refuse new submits
	s.rootCancel(errKilled)
	s.wg.Wait()
	s.journal.close()
}

// Running returns the number of jobs currently executing.
func (s *Server) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Draining reports whether the daemon has begun shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// checkpointPath is the job's drain/L4 checkpoint file.
func (s *Server) checkpointPath(j *Job) string {
	return filepath.Join(s.cfg.DataDir, j.ID+".cpk")
}
