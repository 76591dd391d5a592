// Lbmserve is the always-on multi-tenant simulation daemon: it serves
// the cases/*.json job schema over an HTTP/JSON API and runs every job
// under its own self-healing supervisor in a panic-containing bulkhead,
// with admission control, weighted fair scheduling, per-job fault
// isolation and a crash-safe journal (see internal/serve).
//
// Usage:
//
//	lbmserve -addr :8080 -data ./lbmserve-data -workers 4
//
// API:
//
//	POST   /jobs             submit a job (202; 429 + Retry-After when full)
//	GET    /jobs             list jobs
//	GET    /jobs/{id}        job status
//	DELETE /jobs/{id}        cancel a job
//	GET    /jobs/{id}/result result digest (409 until done)
//	GET    /healthz          liveness (503 while draining)
//	GET    /metrics          fleet metrics JSON
//
// The first SIGINT/SIGTERM drains gracefully: admission closes, running
// jobs checkpoint through the L1–L4 hierarchy, the journal stays
// replayable, and the process exits 0. A second signal hard-exits 130.
// Restarting over the same -data dir resumes interrupted work.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sunwaylb/internal/serve"
)

func main() {
	log.SetFlags(0)
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		dataDir   = flag.String("data", "lbmserve-data", "data directory: job journal and drain checkpoints")
		workers   = flag.Int("workers", 0, "worker slots shared across all tenants (default 2)")
		shards    = flag.Int("shards", 0, "scheduler shards (default 2)")
		perTenant = flag.Int("queue-per-tenant", 0, "per-tenant admission queue bound (default 16)")
		maxQueued = flag.Int("max-queued", 0, "global queued-job cap (default shards × per-tenant bound)")
		timeout   = flag.Duration("default-timeout", 0, "deadline for jobs that set no timeout_sec (default 10m)")
		drainWait = flag.Duration("drain-timeout", time.Minute, "max time to wait for running jobs to drain on shutdown")
		traceBuf  = flag.Int("trace-buf", 0, "service trace ring size per rank (default 4096)")
		weights   = flag.String("weights", "", "WRR dequeue weights, e.g. 'alice=3,bob=1' (missing tenants weigh 1)")
	)
	flag.Parse()

	tw, err := parseWeights(*weights)
	if err != nil {
		log.Fatalf("lbmserve: %v", err)
	}
	s, err := serve.NewServer(serve.Config{
		Workers:        *workers,
		Shards:         *shards,
		QueuePerTenant: *perTenant,
		MaxQueued:      *maxQueued,
		TenantWeights:  tw,
		DataDir:        *dataDir,
		DefaultTimeout: *timeout,
		TraceBuf:       *traceBuf,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatalf("lbmserve: %v", err)
	}

	// Catch signals before the listener answers /healthz: a supervisor that
	// sees "healthy" may send SIGTERM at once, and that must drain, not kill.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()
	log.Printf("lbmserve: serving on %s (data %s)", *addr, *dataDir)

	select {
	case err := <-httpErr:
		log.Fatalf("lbmserve: http: %v", err)
	case got := <-sig:
		log.Printf("lbmserve: %v: draining (signal again to hard-exit)", got)
	}
	go func() {
		<-sig
		log.Print("lbmserve: second signal: hard exit")
		os.Exit(130)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Stop accepting HTTP first, then drain jobs: running work
	// checkpoints and the journal keeps interrupted jobs replayable.
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("lbmserve: http shutdown: %v", err)
	}
	if err := s.Drain(ctx); err != nil {
		log.Fatalf("lbmserve: %v", err)
	}
	log.Print("lbmserve: drained; interrupted jobs resume on next start")
}

// parseWeights reads 'tenant=weight,tenant=weight' into a map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -weights entry %q, want tenant=weight", kv)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight %q for tenant %q (want a positive integer)", val, name)
		}
		out[name] = w
	}
	return out, nil
}
