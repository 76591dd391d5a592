// Package serve implements lbmserve: an always-on multi-tenant
// simulation service wrapped around the self-healing distributed solver
// (internal/psolve). Tenants submit jobs — the same JSON case schema the
// CLI reads — over HTTP; a sharded scheduler leases worker slots from a
// shared pool and runs each job in its own bulkhead: a panic-containing
// goroutine with a private fault injector, a private snapshot store and
// its own supervisor, so one tenant's crash (or fault plan) cannot touch
// a neighbour's run or the daemon itself.
//
// The control plane is built for overload and restarts, not just the
// happy path: admission control with bounded per-tenant queues and
// weighted round-robin dequeue, 429 + Retry-After backpressure, shedding
// that only ever takes the lowest-priority *queued* work, deadline-aware
// scheduling with per-job timeouts, retry-with-backoff for worker-loss
// kills, and a crash-safe append-only journal that replays pending work
// after a daemon restart. SIGTERM drains: admission closes, running jobs
// checkpoint through the L1–L4 hierarchy, and the process exits cleanly.
package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"sunwaylb/internal/config"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/perf"
	"sunwaylb/internal/psolve"
)

// JobSpec is the submit payload: the CLI's case schema plus the
// service-level envelope (tenant, priority, decomposition, fault plan,
// resilience knobs, deadline).
type JobSpec struct {
	// Tenant names the submitting tenant; every tenant gets its own
	// bounded admission queue. Empty maps to "default".
	Tenant string `json:"tenant,omitempty"`
	// Priority orders shedding under overload: when the global queue cap
	// is hit, the lowest-priority queued job is shed first. Higher is
	// more important. Running jobs are never shed.
	Priority int `json:"priority,omitempty"`
	// Case is the simulation description (same schema as cases/*.json).
	Case config.Case `json:"case"`
	// Decomp is the process grid, e.g. "2x2" (default "2x1"), or "patch"
	// / "patchN" for the patch-decomposed world on N workers (default 2).
	Decomp string `json:"decomp,omitempty"`
	// FaultPlan optionally injects deterministic faults into this job
	// only (the CLI's -fault-plan DSL). Validated at admission against
	// the job's own world size.
	FaultPlan string `json:"fault_plan,omitempty"`
	// MaxRestarts is the job's supervisor recovery budget (default 2;
	// -1 means zero — the first unrecovered failure kills the attempt).
	MaxRestarts int `json:"max_restarts,omitempty"`
	// SnapshotEvery/Levels/GroupSize/SpareRanks configure the multi-level
	// checkpoint hierarchy (defaults: every 5 steps, levels 1234, group
	// 2, one spare).
	SnapshotEvery int    `json:"snapshot_every,omitempty"`
	Levels        string `json:"levels,omitempty"`
	GroupSize     int    `json:"group_size,omitempty"`
	SpareRanks    int    `json:"spare_ranks,omitempty"`
	// Detector selects the job's failure detector: "deadline" (default)
	// or "phi" (accrual heartbeats — what a flap@ fault plan needs to be
	// noticed).
	Detector string `json:"detector,omitempty"`
	// TimeoutSec bounds the job's wall-clock run time (0 = the server's
	// default deadline). A job that exceeds it is canceled — its drain
	// checkpoint is preserved — and reported as failed with a deadline
	// cause.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Retries is how many times a job killed by worker loss (its
	// supervisor exhausted the restart budget on rank deaths) is
	// re-queued with backoff before being declared failed (default 0).
	Retries int `json:"retries,omitempty"`
}

// maxJobRanks caps a job's world: the workers of a patch job and the
// ranks of a grid job.
const maxJobRanks = 64

// patchWorkerCount reports the worker count of a "patch"/"patchN"
// decomp spec: 0 when the spec is not patch-decomposed, -1 when it is
// malformed ("patchx", "patch0").
func patchWorkerCount(decomp string) int {
	d := strings.ToLower(strings.TrimSpace(decomp))
	if !strings.HasPrefix(d, "patch") {
		return 0
	}
	rest := d[len("patch"):]
	if rest == "" {
		return 2
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return -1
	}
	return n
}

// normalize fills defaults and validates the spec, returning the parsed
// process grid. Patch-decomposed jobs report their worker roster as an
// N×1 grid so world-sized validation (fault plans name workers the job
// actually has) works unchanged.
func (sp *JobSpec) normalize() (px, py int, err error) {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if sp.Decomp == "" {
		sp.Decomp = "2x1"
	}
	if n := patchWorkerCount(sp.Decomp); n != 0 {
		if n < 0 || n > maxJobRanks {
			return 0, 0, fmt.Errorf("serve: bad decomp %q, want patch or patchN with N in [1,%d]", sp.Decomp, maxJobRanks)
		}
		px, py = n, 1
	} else if g, err := decomp.ParseGrid(sp.Decomp, 2); err != nil {
		return 0, 0, fmt.Errorf("serve: bad decomp %q, want e.g. 2x2 or patchN: %w", sp.Decomp, err)
	} else if px, py = g[0], g[1]; px > maxJobRanks || py > maxJobRanks || px*py > maxJobRanks {
		return 0, 0, fmt.Errorf("serve: decomp %q has more than %d ranks", sp.Decomp, maxJobRanks)
	}
	if err := sp.Case.Validate(); err != nil {
		return 0, 0, err
	}
	if sp.Case.Steps < 1 {
		return 0, 0, fmt.Errorf("serve: case %q has no steps to run", sp.Case.Name)
	}
	if sp.MaxRestarts == 0 {
		sp.MaxRestarts = 2
	} else if sp.MaxRestarts < 0 {
		sp.MaxRestarts = 0
	}
	if sp.SnapshotEvery == 0 {
		sp.SnapshotEvery = 5
	}
	if sp.Levels == "" {
		sp.Levels = "1234"
	}
	if sp.GroupSize == 0 {
		sp.GroupSize = 2
	}
	if sp.SpareRanks == 0 {
		sp.SpareRanks = 1
	}
	// A tenant's faults must stay inside its own world: reject plans that
	// name ranks the job does not have, as the job's supervisor would.
	var policy psolve.SupervisorOptions
	if err := policy.SetPolicy(sp.FaultPlan, sp.Levels, px*py); err != nil {
		return 0, 0, err
	}
	switch sp.Detector {
	case "", "deadline", "phi":
	default:
		return 0, 0, fmt.Errorf("serve: unknown detector %q (want deadline or phi)", sp.Detector)
	}
	if sp.Retries < 0 || sp.Retries > 5 {
		return 0, 0, fmt.Errorf("serve: retries %d outside [0,5]", sp.Retries)
	}
	return px, py, nil
}

// JobState is the lifecycle of a job inside the service.
type JobState string

const (
	// StateQueued: admitted, waiting for a worker slot.
	StateQueued JobState = "queued"
	// StateRunning: executing under its own supervisor in a bulkhead.
	StateRunning JobState = "running"
	// StateDone: finished; results available.
	StateDone JobState = "done"
	// StateFailed: exhausted its recovery and retry budgets, hit its
	// deadline, or panicked.
	StateFailed JobState = "failed"
	// StateCanceled: canceled by the tenant or by daemon drain; a drain
	// checkpoint is preserved where possible.
	StateCanceled JobState = "canceled"
	// StateShed: dropped from the queue under overload (never ran).
	StateShed JobState = "shed"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateShed
}

// Job is the service-side record of one submitted simulation.
type Job struct {
	mu sync.Mutex

	// Immutable after admission.
	ID     string
	Spec   JobSpec
	px, py int

	state     JobState
	err       string
	attempts  int // service-level runs (1 + retries consumed)
	submitted time.Time
	started   time.Time
	finished  time.Time
	deadline  time.Time
	stats     perf.RecoveryStats
	digest    ResultDigest // set when the job finishes done; no field is kept
	cancel    func(reason error)

	done chan struct{} // closed on entering a terminal state
}

// Status is the JSON view of a job served by GET /jobs/{id}.
type Status struct {
	ID        string             `json:"id"`
	Tenant    string             `json:"tenant"`
	Name      string             `json:"name"`
	State     JobState           `json:"state"`
	Error     string             `json:"error,omitempty"`
	Attempts  int                `json:"attempts"`
	Priority  int                `json:"priority"`
	QueuedSec float64            `json:"queued_sec"`
	RunSec    float64            `json:"run_sec"`
	Recovery  perf.RecoveryStats `json:"recovery"`
}

// Snapshot returns a consistent copy of the job's externally visible
// state.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:       j.ID,
		Tenant:   j.Spec.Tenant,
		Name:     j.Spec.Case.Name,
		State:    j.state,
		Error:    j.err,
		Attempts: j.attempts,
		Priority: j.Spec.Priority,
		Recovery: j.stats,
	}
	switch {
	case j.started.IsZero():
		if j.state == StateQueued {
			st.QueuedSec = time.Since(j.submitted).Seconds()
		}
	default:
		st.QueuedSec = j.started.Sub(j.submitted).Seconds()
		if j.finished.IsZero() {
			st.RunSec = time.Since(j.started).Seconds()
		} else {
			st.RunSec = j.finished.Sub(j.started).Seconds()
		}
	}
	return st
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the finished job's result digest with its recovery
// scorecard (the zero digest unless StateDone). The field is hashed once,
// when the job finishes, and not kept: a daemon that held every finished
// job's field would grow with the number of jobs it has run.
func (j *Job) Result() ResultDigest {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return ResultDigest{}
	}
	d := j.digest
	d.Recovery = j.stats
	return d
}

// Stats returns the job's recovery scorecard.
func (j *Job) Stats() perf.RecoveryStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// finish moves the job into a terminal state exactly once; later calls
// are ignored (e.g. a cancel racing a natural completion). The done
// channel is NOT closed here — the server closes it after the fleet
// accounting is updated, so an observer woken by Done() never reads
// metrics that have not yet counted this job.
func (j *Job) finish(state JobState, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.state = state
	j.err = errMsg
	j.finished = time.Now()
	return true
}
