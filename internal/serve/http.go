package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"runtime"

	"sunwaylb/internal/core"
	"sunwaylb/internal/perf"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs             submit (202; 429 + Retry-After when full; 503 draining)
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        job status
//	DELETE /jobs/{id}        cancel (queued: dequeued; running: drained)
//	GET    /jobs/{id}/result result digest (409 until done)
//	GET    /healthz          liveness (503 while draining)
//	GET    /metrics          fleet metrics JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad job spec: %v", err)})
		return
	}
	j, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, j.Snapshot())
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, ErrQueueFull):
		// Backpressure, not failure: tell the tenant when capacity is
		// plausibly back.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.RetryAfter()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	canceled, err := s.Cancel(id)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	if !canceled {
		writeJSON(w, http.StatusConflict, errorBody{Error: "job already finished"})
		return
	}
	j, _ := s.Job(id)
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// ResultDigest is the JSON result payload: dimensions, step count and a
// checksum over the exact field bits. Two runs that agree on the digest
// checksum agree on every bit of every value (FNV-1a over the IEEE-754
// representations) — enough for tenants to verify reproducibility
// without shipping the full field.
type ResultDigest struct {
	ID       string             `json:"id"`
	Name     string             `json:"name"`
	NX       int                `json:"nx"`
	NY       int                `json:"ny"`
	NZ       int                `json:"nz"`
	Steps    int                `json:"steps"`
	Checksum string             `json:"checksum"`
	Recovery perf.RecoveryStats `json:"recovery"`
}

// FieldChecksum hashes the field's exact bit content (FNV-1a, 64-bit).
func FieldChecksum(m *core.MacroField) string {
	h := fnv.New64a()
	var b [8]byte
	sum := func(vals []float64) {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	sum(m.Rho)
	sum(m.Ux)
	sum(m.Uy)
	sum(m.Uz)
	return fmt.Sprintf("%016x", h.Sum64())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	st := j.Snapshot()
	if st.State != StateDone {
		writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job is %s, results exist only for done jobs", st.State)})
		return
	}
	writeJSON(w, http.StatusOK, j.Result())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Metrics is the fleet view served by GET /metrics: queue and worker
// gauges, lifecycle counters, the aggregate recovery scorecard merged
// across every finished job, job-latency percentiles, and the state of
// the bounded service trace ring.
type Metrics struct {
	Queued        int            `json:"queued"`
	QueuedTenant  map[string]int `json:"queued_by_tenant,omitempty"`
	Running       int            `json:"running"`
	Workers       int            `json:"workers"`
	WorkersBusy   int            `json:"workers_busy"`
	Submitted     int64          `json:"submitted"`
	Completed     int64          `json:"completed"`
	Failed        int64          `json:"failed"`
	Canceled      int64          `json:"canceled"`
	Shed          int64          `json:"shed"`
	Rejected      int64          `json:"rejected"`
	Draining      bool           `json:"draining"`
	JournalReplay int            `json:"journal_replayed_records"`
	// Recovery is every job's perf.RecoveryStats merged: the fleet's
	// fault-tolerance scorecard.
	Recovery perf.RecoveryStats `json:"recovery"`
	// JobSec summarises job run durations (seconds) over finished jobs.
	JobSec perf.Summary `json:"job_sec"`
	// TraceEvents/TraceDropped report the bounded telemetry ring: events
	// currently buffered and events overwritten since start.
	TraceEvents  int   `json:"trace_events"`
	TraceDropped int64 `json:"trace_dropped"`
	Goroutines   int   `json:"goroutines"`
	// Patch aggregates the patch-decomposed jobs' balancer activity;
	// omitted until the first patch-mode job runs.
	Patch *PatchMetrics `json:"patch,omitempty"`
}

// PatchMetrics is the fleet's patch-mode scorecard: how many jobs ran
// patch-decomposed, how much the balancer and the recovery path moved
// patches, and the last finished job's placement and imbalance.
type PatchMetrics struct {
	Jobs       int64 `json:"jobs"`
	Migrations int64 `json:"migrations"`
	Rebalances int64 `json:"rebalances"`
	// LastImbalance is the final measured max/mean worker-load ratio of
	// the most recent patch job that reported one.
	LastImbalance float64 `json:"last_imbalance,omitempty"`
	// PatchesPerOwner is the final patch placement of the most recent
	// patch job (index = worker).
	PatchesPerOwner []int `json:"patches_per_owner,omitempty"`
}

// MetricsSnapshot assembles the current fleet metrics.
func (s *Server) MetricsSnapshot() Metrics {
	byTenant := make(map[string]int)
	for _, sh := range s.shards {
		sh.adm.byTenant(byTenant)
	}
	s.mu.Lock()
	m := Metrics{
		Running:       s.running,
		Workers:       s.cfg.Workers,
		Submitted:     s.submitted,
		Completed:     s.completed,
		Failed:        s.failed,
		Canceled:      s.canceled,
		Shed:          s.shed,
		Rejected:      s.rejected,
		Recovery:      s.agg,
		JobSec:        s.latency.SummaryStats(),
		JournalReplay: s.replayed,
	}
	if s.patchJobs > 0 {
		m.Patch = &PatchMetrics{
			Jobs:            s.patchJobs,
			Migrations:      s.patchMigrations,
			Rebalances:      s.patchRebalances,
			LastImbalance:   s.patchLastImbalance,
			PatchesPerOwner: append([]int(nil), s.patchPerOwner...),
		}
	}
	s.mu.Unlock()
	m.Queued = s.queuedTotal()
	if len(byTenant) > 0 {
		m.QueuedTenant = byTenant
	}
	m.WorkersBusy = len(s.pool)
	m.Draining = s.Draining()
	m.TraceEvents = len(s.tracer.Events())
	m.TraceDropped = s.tracer.Dropped()
	m.Goroutines = runtime.NumGoroutine()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}
