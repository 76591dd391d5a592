package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sunwaylb/internal/config"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/serve"
)

const (
	serveWorkloadName = "serve-jobs"
	serveWhy          = "real HTTP, 2 closed-loop tenants, small cache-resident jobs: admission, fsync'd journal, world spin-up, default snapshot/disk cadence, patch world and digest dominate; kernel changes barely move it"

	serveClients   = 2 // closed loop: each client waits for its digest before the next POST
	pollInterval   = 5 * time.Millisecond
	jobTimeout     = 60 * time.Second
	serverStartMax = 20 * time.Second
	serverDrainMax = 60 * time.Second
	// setupCycles extra start→healthy→SIGTERM cycles precede the measured
	// session of an end-to-end run.
	setupCycles = 8
)

// jobClass is one size of service job. Every job of a class carries the
// same case, so one in-process reference checksum covers them all.
type jobClass struct {
	name     string
	n, steps int
	tau      float64
	checksum string // serve.FieldChecksum of the in-process reference
}

func (c *jobClass) work() float64 { return float64(c.n*c.n*c.n) * float64(c.steps) }

func (c *jobClass) spec(tenant, decomp string) serve.JobSpec {
	return serve.JobSpec{
		Tenant: tenant,
		Decomp: decomp,
		Case:   config.Case{Name: c.name, NX: c.n, NY: c.n, NZ: c.n, Tau: c.tau, Steps: c.steps},
	}
}

// job is one entry of the seeded job list.
type job struct {
	class  *jobClass
	decomp string
}

const (
	jobBlocks      = 12 // blocks of smallPerBlock small jobs + 1 large
	smallPerBlock  = 10
	smallN, smallT = 32, 40 // 32³ × 40 steps
	largeN, largeT = 64, 20 // 64³ × 20 steps
)

// jobList makes the workload's inputs from the seed: the relaxation time
// of each size class and the order of 120 small and 12 large jobs. The
// shuffle is per block of 10 small + 1 large, so any prefix the run gets
// through in its time holds the same mix whatever the seed. Decomposition
// alternates 2x1 / patch2 down the list.
func jobList(seed int64) (small, large *jobClass, list []job) {
	rng := rand.New(rand.NewSource(seed))
	tau := func() float64 { return math.Round((0.6+0.3*rng.Float64())*1000) / 1000 }
	small = &jobClass{name: "small", n: smallN, steps: smallT, tau: tau()}
	large = &jobClass{name: "large", n: largeN, steps: largeT, tau: tau()}
	for b := 0; b < jobBlocks; b++ {
		block := make([]*jobClass, smallPerBlock+1)
		for i := range block {
			block[i] = small
		}
		block[rng.Intn(len(block))] = large
		for _, c := range block {
			decomp := "2x1"
			if len(list)%2 == 1 {
				decomp = "patch2"
			}
			list = append(list, job{class: c, decomp: decomp})
		}
	}
	return small, large, list
}

// reference runs the class's case in process, unsupervised, on the 2x1
// grid and stores the checksum every service digest of the class must
// equal — whether the service ran it on 2x1 ranks or as a patch world.
func (c *jobClass) reference() error {
	opts, err := serve.BuildOptions(c.spec("ref", "2x1"))
	if err != nil {
		return err
	}
	m, err := psolve.Run(opts, c.steps)
	if err != nil {
		return err
	}
	c.checksum = serve.FieldChecksum(m)
	return nil
}

// serveSupervisor is the supervised run the service makes of a 2x1 job
// that sets none of the resilience knobs (the defaults JobSpec documents:
// snapshot every 5 steps, levels 1234, group 2, one spare, 2 restarts).
func serveSupervisor(spec serve.JobSpec) (psolve.SupervisorOptions, error) {
	opts, err := serve.BuildOptions(spec)
	if err != nil {
		return psolve.SupervisorOptions{}, err
	}
	return psolve.SupervisorOptions{
		ContainPanics: true,
		Opts:          opts,
		Steps:         spec.Case.Steps,
		MaxRestarts:   2,
		SnapshotEvery: 5,
		Levels:        resil.L1 | resil.L2 | resil.L3 | resil.L4,
		GroupSize:     2,
		SpareRanks:    1,
	}, nil
}

// server is one lbmserve child process.
type server struct {
	cmd *exec.Cmd
	url string
	log bytes.Buffer
}

// startServer execs lbmserve on a free loopback port and waits for the
// first 200 from /healthz; setupSec is exec → that answer.
func (b *bench) startServer(dataDir string) (s *server, setupSec float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s = &server{url: "http://" + addr}
	s.cmd = exec.Command(b.bins.lbmserve, "-addr", addr, "-data", dataDir, "-workers", "1")
	s.cmd.Env = append(os.Environ(), oneCore)
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	s.cmd.SysProcAttr = dieWithParent
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	client := &http.Client{Timeout: time.Second}
	for time.Since(t0) < serverStartMax {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0).Seconds(), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.cmd.Process.Kill()
	s.cmd.Wait()
	return nil, 0, fmt.Errorf("lbmserve not healthy after %v: %s", serverStartMax, tail(s.log.String(), 300))
}

// stop sends SIGTERM and waits for the drain; a server that does not exit
// 0 in time is killed and reported.
func (s *server) stop() (drainSec float64, rssKB int64, err error) {
	t0 := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(serverDrainMax):
		s.cmd.Process.Kill()
		<-done
		err = fmt.Errorf("lbmserve killed: no exit within %v of SIGTERM", serverDrainMax)
	}
	if err != nil {
		err = fmt.Errorf("%v: %s", err, tail(s.log.String(), 300))
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssKB = ru.Maxrss
	}
	return time.Since(t0).Seconds(), rssKB, err
}

// jobOutcome is what one client saw of one job.
type jobOutcome struct {
	job
	err        error
	postSec    float64 // the POST round trip
	resultSec  float64 // the GET that returned the digest
	latencySec float64 // POST sent → digest received
	doneAt     time.Time
	// From GET /jobs/{id}, traced sessions only.
	queuedSec, runSec float64
}

// session is the measured part of a serve run.
type session struct {
	outcomes  []jobOutcome
	firstPost time.Time
}

// runSession drives the server with serveClients closed-loop clients that
// draw jobs from the shared list until the time is up, then finish the
// job in hand.
func runSession(s *server, list []job, seconds float64, withStatus bool) session {
	var (
		mu   sync.Mutex
		out  session
		next atomic.Int64
		wg   sync.WaitGroup
	)
	out.firstPost = time.Now()
	deadline := out.firstPost.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				o := runJob(client, s.url, tenant, list[i], withStatus)
				mu.Lock()
				out.outcomes = append(out.outcomes, o)
				mu.Unlock()
			}
		}(string(rune('a' + c)))
	}
	wg.Wait()
	return out
}

// runJob submits one job and polls its result until the digest arrives,
// then checks the digest against the class reference.
func runJob(client *http.Client, url, tenant string, j job, withStatus bool) jobOutcome {
	o := jobOutcome{job: j}
	body, err := json.Marshal(j.class.spec(tenant, j.decomp))
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	var st serve.Status
	code, err := doJSON(client, http.MethodPost, url+"/jobs", body, &st)
	o.postSec = time.Since(t0).Seconds()
	switch {
	case err != nil:
		o.err = fmt.Errorf("POST /jobs: %w", err)
		return o
	case code == http.StatusTooManyRequests:
		o.err = errors.New("POST /jobs: 429, queue full")
		return o
	case code != http.StatusAccepted:
		o.err = fmt.Errorf("POST /jobs: status %d", code)
		return o
	}
	// The result endpoint answers 409 with an error body until the job is
	// done, then 200 with the digest.
	var answer struct {
		serve.ResultDigest
		Error string `json:"error"`
	}
	for {
		t1 := time.Now()
		code, err := doJSON(client, http.MethodGet, url+"/jobs/"+st.ID+"/result", nil, &answer)
		if err != nil {
			o.err = fmt.Errorf("GET result of %s: %w", st.ID, err)
			return o
		}
		if code == http.StatusOK {
			o.resultSec = time.Since(t1).Seconds()
			o.doneAt = time.Now()
			o.latencySec = o.doneAt.Sub(t0).Seconds()
			break
		}
		// A job that ended any other way than done never gets to 200.
		if code != http.StatusConflict ||
			!(strings.Contains(answer.Error, "job is queued") || strings.Contains(answer.Error, "job is running")) {
			o.err = fmt.Errorf("job %s did not finish: status %d %s", st.ID, code, answer.Error)
			return o
		}
		if time.Since(t0) > jobTimeout {
			o.err = fmt.Errorf("job %s: no digest within %v", st.ID, jobTimeout)
			return o
		}
		time.Sleep(pollInterval)
	}
	if answer.Checksum != j.class.checksum {
		o.err = fmt.Errorf("job %s (%s, %s): checksum %s, in-process reference %s",
			st.ID, j.class.name, j.decomp, answer.Checksum, j.class.checksum)
		return o
	}
	if withStatus {
		if _, err := doJSON(client, http.MethodGet, url+"/jobs/"+st.ID, nil, &st); err == nil {
			o.queuedSec, o.runSec = st.QueuedSec, st.RunSec
		}
	}
	return o
}

// doJSON performs one request and decodes the JSON answer into out.
func doJSON(client *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return resp.StatusCode, fmt.Errorf("status %d, undecodable body %q", resp.StatusCode, tail(string(raw), 120))
	}
	return resp.StatusCode, nil
}

// sampleRSS reads the process's resident set from /proc every 20 ms until
// the returned function is called, which hands back the samples in MB
// (none where there is no /proc).
func sampleRSS(pid int) (stop func() []float64) {
	quit := make(chan struct{})
	done := make(chan []float64)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var mb []float64
		for {
			select {
			case <-quit:
				done <- mb
				return
			case <-tick.C:
				// statm: size resident shared … in pages.
				fields := strings.Fields(readTrim(fmt.Sprintf("/proc/%d/statm", pid)))
				if len(fields) < 2 {
					continue
				}
				if pages, err := strconv.ParseFloat(fields[1], 64); err == nil {
					mb = append(mb, pages*float64(os.Getpagesize())/1e6)
				}
			}
		}
	}()
	return func() []float64 {
		close(quit)
		return <-done
	}
}

// serveRun is everything one lbmserve life yields: the session plus the
// set-up, drain and memory figures around it.
type serveRun struct {
	session
	small, large *jobClass
	setupSec     []float64
	drainSec     float64
	rssMB        []float64 // sampled over the session
	rssPeakKB    int64     // ru_maxrss
	journalBytes int64
	rejected     int64 // the server's own count, from /metrics
}

// serveJobs runs the serve-jobs workload once: references, setupCycles
// idle server lives (so that setup_s is a median, not one sample), then
// one measured life driven for the given seconds.
// Failures are counted and named in rec.
func (b *bench) serveJobs(rec *runRecord, small, large *jobClass, list []job, seconds float64, setupCycles int, withStatus bool) (*serveRun, error) {
	for _, c := range []*jobClass{small, large} {
		if err := c.reference(); err != nil {
			return nil, fmt.Errorf("in-process reference of %s jobs: %w", c.name, err)
		}
	}
	run := &serveRun{small: small, large: large}
	for i := 0; i <= setupCycles; i++ {
		dataDir, err := os.MkdirTemp(b.tmp, "serve-data-")
		if err != nil {
			return nil, err
		}
		s, setupSec, err := b.startServer(dataDir)
		if err != nil {
			return nil, err
		}
		run.setupSec = append(run.setupSec, setupSec)
		if i == setupCycles {
			stopSampling := sampleRSS(s.cmd.Process.Pid)
			run.session = runSession(s, list, seconds, withStatus)
			run.rssMB = stopSampling()
			var m serve.Metrics
			if _, err := doJSON(&http.Client{Timeout: 5 * time.Second}, http.MethodGet, s.url+"/metrics", nil, &m); err == nil {
				run.rejected = m.Rejected
			}
		}
		drainSec, rssKB, err := s.stop()
		if err != nil {
			rec.Attempted++
			rec.fail("lbmserve shutdown: %v", err)
		}
		if i == setupCycles {
			run.drainSec, run.rssPeakKB = drainSec, rssKB
			if st, err := os.Stat(filepath.Join(dataDir, "jobs.journal")); err == nil {
				run.journalBytes = st.Size()
			}
		}
		os.RemoveAll(dataDir)
	}
	for _, o := range run.outcomes {
		rec.Attempted++
		if o.err != nil {
			rec.fail("%v", o.err)
		}
	}
	return run, nil
}

// done returns the outcomes that produced a verified digest, optionally
// of one class only.
func (r *serveRun) done(class *jobClass) []jobOutcome {
	var out []jobOutcome
	for _, o := range r.outcomes {
		if o.err == nil && (class == nil || o.class == class) {
			out = append(out, o)
		}
	}
	return out
}

func pick(os []jobOutcome, f func(jobOutcome) float64) []float64 {
	out := make([]float64, len(os))
	for i, o := range os {
		out[i] = f(o)
	}
	return out
}

// runServeWorkload is one end-to-end run of serve-jobs.
func (b *bench) runServeWorkload(seed int64, seconds float64) (runRecord, error) {
	rec := runRecord{Workload: serveWorkloadName, Seed: seed, Seconds: seconds, Metrics: map[string]value{}}
	small, large, list := jobList(seed)
	run, err := b.serveJobs(&rec, small, large, list, seconds, setupCycles, false)
	if err != nil {
		return rec, err
	}
	done := run.done(nil)
	smallDone := run.done(run.small)
	if len(done) == 0 || len(smallDone) == 0 {
		return rec, errors.New("no job produced a verified digest")
	}
	var work float64
	last := run.firstPost
	for _, o := range done {
		work += o.class.work()
		if o.doneAt.After(last) {
			last = o.doneAt
		}
	}
	rec.set(endToEnd, "mlups", work/last.Sub(run.firstPost).Seconds()/1e6)
	rec.set(endToEnd, "setup_s", median(run.setupSec))
	rec.set(endToEnd, "job_latency_s", median(pick(smallDone, func(o jobOutcome) float64 { return o.latencySec })))
	// A server's resident set is a sawtooth the collector draws. Its
	// high-water mark — the worst moment of a handful of large jobs —
	// spread up to 24 % over ten runs; the level it stays under nine
	// tenths of the time repeats better.
	peakMB := float64(run.rssPeakKB) * 1024 / 1e6
	rss := peakMB
	if len(run.rssMB) > 0 {
		rss = percentile(run.rssMB, 90)
	}
	rec.set(endToEnd, "rss_mb", rss)
	rec.note("server RSS: p90 of %d samples %.0f MB, high-water mark %.0f MB", len(run.rssMB), rss, peakMB)
	rec.note("%d jobs done (%d small, %d large) by %d clients; tau small=%g large=%g",
		len(done), len(smallDone), len(run.done(run.large)), serveClients, run.small.tau, run.large.tau)
	latencies := pick(smallDone, func(o jobOutcome) float64 { return o.latencySec })
	if p, ok := tailPercentile(len(latencies)); ok {
		rec.note("small-job latency p%g %.3f s over %d samples", p, percentile(latencies, p), len(latencies))
	} else {
		rec.note("small-job latency: %d samples, too few for a tail percentile with ten beyond it", len(latencies))
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}
