package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/npb"
)

// The fleet workload drives the cmd/slipd binary over loopback HTTP
// with only its long-lived flags. Load comes from this one process over
// at most two connections: the open-loop sender on one, and on the
// other a poller that watches the server's job views for completions.

// Open-loop rates. The fleet runs two jobs at a time, one per worker;
// the notes line of every run prints how busy misses keep those two
// slots.
var openLoopShape = loadShape{missRate: 7, hitRate: 100, dedupRate: 1, burst: 2, hitStart: 1500 * time.Millisecond}

const (
	interactiveKey = "perfbench-interactive"
	batchKey       = "perfbench-batch"
	pollEvery      = 100 * time.Millisecond
	campaignRounds = 7 // campaign rounds per untraced run
	drainTimeout   = 90 * time.Second
	readyTimeout   = 30 * time.Second
)

// ---- slipd processes --------------------------------------------------------

type slipProc struct {
	cmd    *exec.Cmd
	url    string
	log    *os.File
	exited chan struct{} // closed once the process has been reaped
	err    error         // the exit status, valid after exited closes
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

func startSlipd(bin, dataDir string, extra ...string) (*slipProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-data-dir", dataDir,
		"-tenant", "interactive:" + interactiveKey, "-tenant", "batch:" + batchKey}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start slipd: %w", err)
	}
	p := &slipProc{cmd: cmd, url: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	return p, nil
}

// stop drains the process with SIGTERM and waits for it to exit,
// killing it if the drain overruns. Stopping an exited process is a
// no-op that reports its exit status.
func (p *slipProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only once the process has exited
	select {
	case <-p.exited:
		return p.err
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("slipd %s: drain overran; killed", p.url)
	}
}

// resetPeakRSS restarts this process's VmHWM from its current RSS, so
// the next peakRSSMiB(0) reads the peak since now. Where /proc refuses,
// the reading stays the process's lifetime peak.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMiB reads VmHWM of pid (0 = this process).
func peakRSSMiB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// deployment is a coordinator with its workers.
type deployment struct {
	front   *slipProc
	workers []*slipProc
}

func (d *deployment) procs() []*slipProc { return append([]*slipProc{d.front}, d.workers...) }

func (d *deployment) peakRSS() float64 {
	t := 0.0
	for _, p := range d.procs() {
		t += peakRSSMiB(p.cmd.Process.Pid)
	}
	return t
}

func (d *deployment) stop() error {
	var errs []error
	for _, p := range d.workers { // workers first: they hold claims
		errs = append(errs, p.stop())
	}
	errs = append(errs, d.front.stop())
	return errors.Join(errs...)
}

// deploy starts a fresh fleet and waits until it serves: every
// process's /readyz returns 200 and both workers have joined the
// coordinator.
func deploy(c *runConfig, dir string) (*deployment, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cl := &http.Client{Timeout: 5 * time.Second}
	d := &deployment{}
	var err error
	if d.front, err = startSlipd(c.slipd, filepath.Join(dir, "coordinator"), "-coordinator", "-workers", "2"); err != nil {
		return nil, err
	}
	if err := waitReady(cl, d); err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		w, err := startSlipd(c.slipd, filepath.Join(dir, fmt.Sprintf("worker%d", i)), "-worker", "-join", d.front.url, "-workers", "1")
		if err != nil {
			d.stop()
			return nil, err
		}
		d.workers = append(d.workers, w)
	}
	return d, waitReady(cl, d)
}

// waitReady waits until every process of d serves /readyz and every
// worker of d has joined; on failure it stops d.
func waitReady(cl *http.Client, d *deployment) error {
	deadline := time.Now().Add(readyTimeout)
	for _, p := range d.procs() {
		for {
			if resp, err := cl.Get(p.url + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if err := exited(p); err != nil || time.Now().After(deadline) {
				d.stop()
				return fmt.Errorf("slipd %s not ready: %v (log %s)", p.url, err, p.log.Name())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for len(d.workers) > 0 {
		var view struct {
			Workers []struct {
				State string `json:"state"`
			} `json:"workers"`
		}
		if err := getJSON(cl, d.front.url+"/cluster/workers", &view); err == nil {
			live := 0
			for _, w := range view.Workers {
				if w.State == "" || w.State == "live" {
					live++
				}
			}
			if live >= len(d.workers) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return fmt.Errorf("fleet: workers did not join %s", d.front.url)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func exited(p *slipProc) error {
	select {
	case <-p.exited:
		return fmt.Errorf("exited: %v", p.err)
	default:
		return nil
	}
}

// ---- HTTP -------------------------------------------------------------------

// client allows two connections: the sender's and the poller's.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}
}

func getJSON(cl *http.Client, url string, v any) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func getBytes(cl *http.Client, url string) ([]byte, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// post sends a JSON body with a tenant key and decodes the reply into v.
func post(cl *http.Client, url, key string, body, v any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", key)
	resp, err := cl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// jobView is the part of slipd's job JSON the benchmark reads.
type jobView struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Key      string     `json:"key"`
	Cached   bool       `json:"cached"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

type submitReply struct {
	Job    jobView `json:"job"`
	Dedup  bool    `json:"dedup"`
	Cached bool    `json:"cached"`
}

// metricsSnapshot parses a Prometheus text page into name{labels} → value.
func metricsSnapshot(cl *http.Client, base string) (map[string]float64, error) {
	b, err := getBytes(cl, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// ---- The open loop ----------------------------------------------------------

// missJob tracks one submitted miss until the poller sees it settle.
type missJob struct {
	spec    runSpec
	due     time.Time
	id, key string
	view    jobView
	settled bool
}

// loadRun is the shared state of one open loop.
type loadRun struct {
	cl   *http.Client
	base string
	tr   *tracer

	mu       sync.Mutex
	misses   []*missJob // by miss index; nil until submitted
	pending  []*missJob
	finished []string          // keys whose miss settled done, in settle order
	first    map[string][]byte // first result bytes seen per key
	failed   int
	refused  int
	checks   []string
	submitMS []float64
	resultMS []float64
	dedups   int
	hitMiss  int // planned hits skipped: no key had finished yet
	lastDone time.Time
}

func (l *loadRun) fail(format string, args ...any) {
	l.mu.Lock()
	l.failed++
	l.checks = append(l.checks, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// checkBytes compares a result with the first bytes seen for its key.
func (l *loadRun) checkBytes(key string, b []byte, what string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.first[key]; !ok {
		l.first[key] = b
	} else if !bytes.Equal(prev, b) {
		l.failed++
		l.checks = append(l.checks, fmt.Sprintf("%s: result bytes for key %.12s differ from the first ones", what, key))
	}
}

func (l *loadRun) submit(spec any, key, req string) (submitReply, int, error) {
	var rep submitReply
	sp := l.tr.begin("http.submit", req, 0)
	t0 := time.Now()
	code, err := post(l.cl, l.base+"/jobs", key, spec, &rep)
	d := time.Since(t0)
	l.tr.end(sp)
	l.mu.Lock()
	l.submitMS = append(l.submitMS, ms(d))
	l.mu.Unlock()
	return rep, code, err
}

func (l *loadRun) result(id, req string) ([]byte, error) {
	sp := l.tr.begin("http.result", req, 0)
	t0 := time.Now()
	b, err := getBytes(l.cl, l.base+"/jobs/"+id+"/result")
	d := time.Since(t0)
	l.tr.end(sp)
	l.mu.Lock()
	l.resultMS = append(l.resultMS, ms(d))
	l.mu.Unlock()
	return b, err
}

// send issues one scheduled request.
func (l *loadRun) send(p loadPlan, start time.Time, ev event) time.Time {
	due := start.Add(ev.due)
	switch ev.kind {
	case reqMiss:
		spec := p.misses[ev.miss]
		req := fmt.Sprintf("miss-%d", ev.miss)
		rep, code, err := l.submit(spec, interactiveKey, req)
		if err != nil || code/100 != 2 {
			l.refusedOrFailed(code, err, req)
			return time.Time{}
		}
		if rep.Cached || rep.Dedup {
			l.fail("%s: a distinct spec was answered without a run", req)
			return time.Time{}
		}
		j := &missJob{spec: spec, due: due, id: rep.Job.ID, key: rep.Job.Key}
		l.mu.Lock()
		l.misses[ev.miss] = j
		l.pending = append(l.pending, j)
		l.mu.Unlock()
	case reqDedup:
		req := fmt.Sprintf("dedup-%d", ev.miss)
		rep, code, err := l.submit(p.misses[ev.miss], interactiveKey, req)
		if err != nil || code/100 != 2 {
			l.refusedOrFailed(code, err, req)
			return time.Time{}
		}
		l.mu.Lock()
		orig := l.misses[ev.miss]
		if rep.Dedup {
			l.dedups++
		}
		l.mu.Unlock()
		if rep.Dedup && orig != nil && rep.Job.ID != orig.id {
			l.fail("%s: coalesced onto %s, not the in-flight %s", req, rep.Job.ID, orig.id)
		}
		if rep.Cached {
			b, err := l.result(rep.Job.ID, req)
			if err != nil {
				l.fail("%s: %v", req, err)
				return time.Time{}
			}
			l.checkBytes(rep.Job.Key, b, req)
		}
	case reqHit:
		l.mu.Lock()
		if len(l.finished) == 0 {
			l.hitMiss++
			l.mu.Unlock()
			return time.Time{}
		}
		key := l.finished[int(ev.pick)%len(l.finished)]
		var spec runSpec
		for _, j := range l.misses {
			if j != nil && j.key == key {
				spec = j.spec
				break
			}
		}
		l.mu.Unlock()
		req := "hit-" + key[:12]
		rep, code, err := l.submit(spec, interactiveKey, req)
		if err != nil || code/100 != 2 {
			l.refusedOrFailed(code, err, req)
			return time.Time{}
		}
		// A finished key is answered from the cache, or, in the moment
		// between a job finishing and leaving the single-flight index, by
		// coalescing onto that finished job. Either way it does not run.
		if rep.Job.State != "done" || !(rep.Cached || rep.Dedup) {
			l.fail("%s: a finished key was not answered without a run", req)
			return time.Time{}
		}
		b, err := l.result(rep.Job.ID, req)
		if err != nil {
			l.fail("%s: %v", req, err)
			return time.Time{}
		}
		now := time.Now()
		l.checkBytes(key, b, req)
		l.mu.Lock()
		l.lastDone = now
		l.mu.Unlock()
		return now
	}
	return time.Time{}
}

func (l *loadRun) refusedOrFailed(code int, err error, req string) {
	if err == nil && (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable) {
		l.mu.Lock()
		l.refused++
		l.failed++
		l.mu.Unlock()
		return
	}
	l.fail("%s: status %d, %v", req, code, err)
}

// poll watches pending misses until stop closes and none is left, or
// until drainTimeout after stop.
func (l *loadRun) poll(stop <-chan struct{}) {
	var giveUp time.Time
	for {
		l.mu.Lock()
		pending := append([]*missJob(nil), l.pending...)
		l.mu.Unlock()
		select {
		case <-stop:
			if len(pending) == 0 {
				return
			}
			if giveUp.IsZero() {
				giveUp = time.Now().Add(drainTimeout)
			} else if time.Now().After(giveUp) {
				l.fail("open loop: %d misses still pending %s after the last send", len(pending), drainTimeout)
				return
			}
		default:
		}
		for _, j := range pending {
			var v jobView
			sp := l.tr.begin("http.poll", j.id, 0)
			err := getJSON(l.cl, l.base+"/jobs/"+j.id, &v)
			l.tr.end(sp)
			if err != nil {
				l.fail("poll %s: %v", j.id, err)
				l.settle(j, v)
				continue
			}
			switch v.State {
			case "done":
				b, err := l.result(j.id, j.id)
				if err != nil {
					l.fail("result %s: %v", j.id, err)
				} else {
					l.checkBytes(j.key, b, j.id)
				}
				l.settle(j, v)
			case "failed":
				l.fail("%s failed: %s", j.id, v.Error)
				l.settle(j, v)
			}
		}
		time.Sleep(pollEvery)
	}
}

func (l *loadRun) settle(j *missJob, v jobView) {
	l.mu.Lock()
	defer l.mu.Unlock()
	j.view, j.settled = v, true
	for i, p := range l.pending {
		if p == j {
			l.pending = append(l.pending[:i], l.pending[i+1:]...)
			break
		}
	}
	if v.State == "done" && v.Finished != nil {
		l.finished = append(l.finished, j.key)
		if v.Finished.After(l.lastDone) {
			l.lastDone = *v.Finished
		}
	}
}

// loadResult summarizes one open loop.
type loadResult struct {
	missMS, hitMS, lagMS     []float64
	submitMS, resultMS       []float64
	queueMS, runMS           []float64
	offeredRPS, completedRPS float64
	loopS                    float64 // first due time to last send
	distinct, dedups         int
	misses                   []*missJob
}

func runLoad(l *loadRun, p loadPlan) loadResult {
	l.misses = make([]*missJob, len(p.misses))
	l.first = map[string][]byte{}
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		l.poll(stop)
	}()
	start := time.Now().Add(50 * time.Millisecond)
	samples := openLoop(start, p.events, func(ev event) time.Time { return l.send(p, start, ev) })
	sentEnd := time.Now()
	close(stop)
	<-polled

	var r loadResult
	for i, s := range samples {
		r.lagMS = append(r.lagMS, ms(s.lag()))
		if p.events[i].kind == reqHit && !s.done.IsZero() {
			r.hitMS = append(r.hitMS, ms(s.latency()))
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, j := range l.misses {
		if j == nil || !j.settled || j.view.Finished == nil {
			continue
		}
		r.misses = append(r.misses, j)
		r.missMS = append(r.missMS, ms(j.view.Finished.Sub(j.due)))
		if j.view.Started != nil {
			r.queueMS = append(r.queueMS, ms(j.view.Started.Sub(j.view.Created)))
			r.runMS = append(r.runMS, ms(j.view.Finished.Sub(*j.view.Started)))
			l.tr.record("server.queue", j.id, 0, j.view.Created, *j.view.Started)
			l.tr.record("server.run", j.id, 0, *j.view.Started, *j.view.Finished)
		}
	}
	r.submitMS, r.resultMS = l.submitMS, l.resultMS
	r.distinct, r.dedups = len(r.misses), l.dedups
	r.loopS = sentEnd.Sub(start).Seconds()
	r.offeredRPS = float64(len(p.events)) / r.loopS
	r.completedRPS = float64(len(r.missMS)+len(r.hitMS)) / l.lastDone.Sub(start).Seconds()
	return r
}

// ---- The workload -----------------------------------------------------------

func runService(c *runConfig) (*report, error) {
	if c.slipd == "" {
		return nil, fmt.Errorf("%s needs --slipd", c.workload)
	}
	rep := newReport()
	dir := filepath.Join(c.workDir, fmt.Sprintf("%s-%d", c.workload, os.Getpid()))
	defer os.RemoveAll(dir)

	// Set-up: deploy from an empty data dir several times; the last
	// deployment serves the run.
	var setups []float64
	var d *deployment
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		dep, err := deploy(c, filepath.Join(dir, strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := dep.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = dep
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	l := &loadRun{cl: newClient(), base: d.front.url, tr: tr}
	p := plan(c.seed, openLoopShape, time.Duration(c.seconds)*time.Second)
	lr := runLoad(l, p)
	camp, err := runCampaigns(l, c.seed)
	if err != nil {
		return nil, err
	}
	mets, err := metricsSnapshot(l.cl, d.front.url)
	if err != nil {
		return nil, err
	}
	var workerJobs map[string]jobView
	if c.trace {
		if workerJobs, err = listWorkerJobs(l.cl, d); err != nil {
			return nil, err
		}
	}
	rss := d.peakRSS()
	stopped = true
	if err := d.stop(); err != nil {
		rep.check(false, "slipd did not drain cleanly: %v", err)
	}

	// More campaign rounds, each on a fresh fleet whose cache is empty,
	// so every round computes every cell. matrix_s takes the median
	// round, as paper-static takes the median pass.
	rounds := []float64{camp.seconds}
	for i := 1; !c.trace && i < campaignRounds; i++ {
		secs, err := campaignRound(c, l, filepath.Join(dir, fmt.Sprintf("round%d", i)))
		if err != nil {
			return nil, err
		}
		rep.attempted += camp.cells
		rounds = append(rounds, secs)
	}

	l.mu.Lock()
	rep.attempted += len(p.events) - l.hitMiss + camp.cells
	rep.failed += l.failed
	rep.mismatch = append(rep.mismatch, l.checks...)
	l.mu.Unlock()
	// Each distinct spec runs exactly once, and on a clean fleet no lease
	// runs out. A duplicate terminal report is no failure: hedging opens
	// a straggler's claim to the second worker, and the slower one
	// reports after the claim has settled.
	distinct := float64(lr.distinct + len(campaignCells()))
	rep.check(mets["slipd_runs_total"] == distinct, "slipd ran %.0f jobs for %.0f distinct specs", mets["slipd_runs_total"], distinct)
	rep.check(mets["slipd_lease_expirations_total"] == 0, "%.0f claim leases expired on a clean fleet", mets["slipd_lease_expirations_total"])

	if c.trace {
		return traceService(c, rep, tr, lr, camp, mets, workerJobs)
	}
	var lat latencies
	rep.set("setup_s", median(setups))
	matrixS := median(rounds)
	rep.set("matrix_s", matrixS)
	rep.set("sim_mref_per_s", float64(campaignRecorded.mrefs)/matrixS)
	rep.set("slip_gain_pct", camp.gainPct)
	rep.set("peak_rss_mb", rss)
	rep.set("miss_ms_p50", lat.p(lr.missMS, 0.5))
	rep.set("miss_ms_p90", lat.p(lr.missMS, 0.9))
	rep.set("hit_ms_p50", lat.lowestWindow(lr.hitMS, 0.5, hitWindow))
	rep.set("hit_ms_p99", lat.medianWindow(lr.hitMS, 0.99, hitTailWindow))
	rep.set("campaign_cells_per_s", float64(camp.cells)/matrixS)
	if lat.err != nil {
		return nil, lat.err
	}
	rep.notef("%s: %d misses, %d hits, %d dedup bursts of %d, %d refused 429/503; offered %.1f req/s, completed %.1f req/s; lag p99 %.2f ms",
		c.workload, len(lr.missMS), len(lr.hitMS), (len(p.events)-len(p.misses)-len(lr.hitMS)-l.hitMiss)/openLoopShape.burst, openLoopShape.burst, l.refused,
		lr.offeredRPS, lr.completedRPS, lat.p(lr.lagMS, 0.99))
	rep.notef("miss utilization %.2f of the fleet's 2 job slots (Σ server.run %.1f s ÷ 2 × %.1f s loop)", sum(lr.runMS)/1000/(2*lr.loopS), sum(lr.runMS)/1000, lr.loopS)
	rep.notef("campaign rounds %.3f s", rounds)
	rep.notef("reference: campaign slip_gain_pct %.2f%% (static, %v CMPs) vs paper ≈14%% — a test-scale model against the paper-scale hardware", camp.gainPct, campaignNodeCounts)
	return rep, nil
}

// campaignRound deploys a fresh fleet, runs the campaigns on it, checks
// that each distinct cell ran once, stops the fleet and returns the
// campaigns' time.
func campaignRound(c *runConfig, l *loadRun, dir string) (float64, error) {
	d, err := deploy(c, dir)
	if err != nil {
		return 0, err
	}
	l.base = d.front.url
	camp, err := runCampaigns(l, c.seed)
	if err == nil {
		var mets map[string]float64
		if mets, err = metricsSnapshot(l.cl, d.front.url); err == nil && mets["slipd_runs_total"] != float64(len(campaignCells())) {
			l.fail("a fresh fleet ran %.0f jobs for %d distinct campaign cells", mets["slipd_runs_total"], len(campaignCells()))
		}
	}
	if serr := d.stop(); serr != nil {
		l.fail("slipd did not drain cleanly: %v", serr)
	}
	return camp.seconds, err
}

// listWorkerJobs maps cache key → job view across the fleet's workers.
func listWorkerJobs(cl *http.Client, d *deployment) (map[string]jobView, error) {
	out := map[string]jobView{}
	for _, w := range d.workers {
		var list struct {
			Jobs []jobView `json:"jobs"`
		}
		if err := getJSON(cl, w.url+"/jobs", &list); err != nil {
			return nil, err
		}
		for _, j := range list.Jobs {
			if !j.Cached {
				out[j.Key] = j
			}
		}
	}
	return out, nil
}

func traceService(c *runConfig, rep *report, tr *tracer, lr loadResult, camp campaignResult,
	mets map[string]float64, workerJobs map[string]jobView) (*report, error) {
	var lat latencies
	rep.set("http.submit_ms_p50", lat.p(lr.submitMS, 0.5))
	rep.set("http.submit_ms_p99", lat.p(lr.submitMS, 0.99))
	rep.set("server.queue_ms_p50", lat.p(lr.queueMS, 0.5))
	rep.set("server.queue_ms_p90", lat.p(lr.queueMS, 0.9))
	rep.set("server.run_ms_p50", lat.p(lr.runMS, 0.5))
	rep.set("server.run_ms_p90", lat.p(lr.runMS, 0.9))
	rep.set("http.result_ms_p50", lat.p(lr.resultMS, 0.5))
	hits, misses := mets["slipd_cache_hits_total"], mets["slipd_cache_misses_total"]
	rep.set("server.cache_hit_ratio", hits/nonZero(hits+misses))
	rep.set("server.runs_per_distinct", mets["slipd_runs_total"]/float64(lr.distinct+len(campaignCells())))
	rep.set("server.dedup_hits", mets["slipd_jobs_deduplicated_total"])
	rep.set("campaign.collapse_ratio", camp.collapse)
	rep.set("store.journal_bytes", mets["slipd_journal_bytes"])
	rep.set("loadgen.lag_ms_p99", lat.p(lr.lagMS, 0.99))
	rep.set("loadgen.offered_rps", lr.offeredRPS)
	rep.set("loadgen.completed_rps", lr.completedRPS)

	var claimWait, overhead []float64
	for _, j := range lr.misses {
		w, ok := workerJobs[j.key]
		if !ok || j.view.Started == nil || w.Started == nil || w.Finished == nil {
			continue
		}
		claimWait = append(claimWait, ms(w.Created.Sub(*j.view.Started)))
		coordRun := j.view.Finished.Sub(*j.view.Started)
		overhead = append(overhead, ms(coordRun-w.Finished.Sub(*w.Started)))
		tr.record("cluster.claim_wait", j.id, 0, *j.view.Started, w.Created)
	}
	rep.set("cluster.claim_wait_ms_p50", lat.p(claimWait, 0.5))
	rep.set("cluster.dispatch_overhead_ms_p50", lat.p(overhead, 0.5))
	rep.set("cluster.claims_granted", mets[`slipd_claims_total{outcome="granted"}`])
	rep.set("cluster.claims_duplicate", mets[`slipd_claims_total{outcome="duplicate"}`])
	rep.set("cluster.lease_expirations", mets["slipd_lease_expirations_total"])
	rep.set("cluster.hedges_won", mets["slipd_hedges_won_total"])
	if lat.err != nil {
		return nil, lat.err
	}

	// The simulator layers under the service: replay the campaign's
	// distinct cells in-process, one at a time, under spans.
	var mem0, mem1 runtimeMem
	mem0.read()
	t0 := time.Now()
	rp, err := replayCells(tr, campaignCells(), npb.ScaleTest)
	if err != nil {
		return nil, err
	}
	replayMS := ms(time.Since(t0))
	mem1.read()
	rep.attempted += len(campaignCells())
	rep.failed += rp.failed
	rep.check(rp.total.mrefs == campaignRecorded.mrefs, "campaign machine.mrefs %d, recorded %d", rp.total.mrefs, campaignRecorded.mrefs)
	got := countersDigest(rp.counters)
	rep.check(got == campaignRecorded.counters, "campaign counters digest %s, recorded %s", got, campaignRecorded.counters)
	setSimLayer(rep, tr, rp)
	rep.set("experiments.render_ms", 0)
	rep.set("pool.overhead_ms", 0)
	rep.set("pool.parallel_eff", 0)
	rep.set("host.alloc_mb", mem1.allocMB-mem0.allocMB)
	rep.set("host.gc_count", mem1.gcs-mem0.gcs)
	pr, err := runProbes(c.workDir)
	if err != nil {
		return nil, err
	}
	pr.set(rep)
	loopMS := ms(time.Since(tr.epoch))
	rep.set("trace.overhead_pct", pct(float64(tr.selfTime()), float64(time.Duration(loopMS*float64(time.Millisecond)))))

	rep.notef("attribution (%s, medians per miss unless noted):", c.workload)
	rep.notef("  submit      http.submit p50 %.2f ms", rep.metrics["http.submit_ms_p50"])
	rep.notef("  queue       server.queue p50 %.2f ms, p90 %.2f ms", rep.metrics["server.queue_ms_p50"], rep.metrics["server.queue_ms_p90"])
	rep.notef("  claim-wait  cluster.claim_wait p50 %.2f ms; dispatch overhead p50 %.2f ms", rep.metrics["cluster.claim_wait_ms_p50"], rep.metrics["cluster.dispatch_overhead_ms_p50"])
	rep.notef("  run         server.run p50 %.2f ms, p90 %.2f ms", rep.metrics["server.run_ms_p50"], rep.metrics["server.run_ms_p90"])
	rep.notef("  result      http.result p50 %.2f ms", rep.metrics["http.result_ms_p50"])
	rep.notef("  campaign replay in-process %.0f ms (Runtime.Run %.0f ms)", replayMS, tr.total("Runtime.Run"))
	rep.notef("simulated counters (campaign): mrefs %d, digest %s (recorded %s)", rp.total.mrefs, got, campaignRecorded.counters)
	if err := tr.writeFile(spanPath(c)); err != nil {
		return nil, err
	}
	return rep, nil
}

// setServiceLayerAbsent reports the service layers as 0 on the paper
// workload, which does not pass through them.
func setServiceLayerAbsent(rep *report) {
	for _, name := range []string{
		"http.submit_ms_p50", "http.submit_ms_p99", "server.queue_ms_p50", "server.queue_ms_p90",
		"server.run_ms_p50", "server.run_ms_p90", "http.result_ms_p50", "server.cache_hit_ratio",
		"server.runs_per_distinct", "server.dedup_hits", "campaign.collapse_ratio", "store.journal_bytes",
		"cluster.claim_wait_ms_p50", "cluster.dispatch_overhead_ms_p50", "cluster.claims_granted",
		"cluster.claims_duplicate", "cluster.lease_expirations", "cluster.hedges_won",
		"loadgen.lag_ms_p99", "loadgen.offered_rps", "loadgen.completed_rps",
	} {
		rep.set(name, 0)
	}
}
