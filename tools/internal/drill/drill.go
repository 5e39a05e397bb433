// Package drill holds what the end-to-end drills (tools/smoke,
// tools/smokefleet, tools/smokeoverload) share: starting and stopping
// real slipd processes, submitting jobs over HTTP, polling them to a
// state, and reading /metrics. Each drill keeps only its scenario.
package drill

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// FreeAddr reserves a loopback address. The window between closing the
// probe listener and slipd binding it is acceptable for a drill, and
// lets daemons that must know each other's addresses start in any
// order.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// Start launches the daemon on a free port and returns the running
// process plus its base URL.
func Start(bin string, extra ...string) (*exec.Cmd, string, error) {
	addr, err := FreeAddr()
	if err != nil {
		return nil, "", err
	}
	cmd, err := StartAt(bin, addr, extra...)
	if err != nil {
		return nil, "", err
	}
	return cmd, "http://" + addr, nil
}

// StartAt launches the daemon on a specific address with one job slot
// and a two-minute drain; its output goes to this process's stderr.
func StartAt(bin, addr string, extra ...string) (*exec.Cmd, error) {
	args := append([]string{"-addr", addr, "-workers", "1", "-drain", "2m"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	return cmd, nil
}

// StopGracefully SIGTERMs the daemon and requires a clean drain.
func StopGracefully(cmd *exec.Cmd) error {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("slipd exited non-zero after SIGTERM: %w", err)
		}
	case <-time.After(2 * time.Minute):
		return fmt.Errorf("slipd did not exit within 2m of SIGTERM")
	}
	return nil
}

// Post sends a JSON body, presenting apiKey as the tenant key unless it
// is empty, and returns the response with its body read.
func Post(url, apiKey, body string) (*http.Response, string, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", err
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(b), nil
}

// Submit POSTs a job spec as the tenant owning apiKey ("" = the default
// tenant) and returns the new job's id, cache key, and whether it was
// served from the result cache.
func Submit(base, apiKey, spec string) (id, key string, cached bool, err error) {
	resp, body, err := Post(base+"/jobs", apiKey, spec)
	if err != nil {
		return "", "", false, err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", "", false, fmt.Errorf("POST /jobs = %d: %s", resp.StatusCode, body)
	}
	var sr struct {
		Job struct {
			ID  string `json:"id"`
			Key string `json:"key"`
		} `json:"job"`
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		return "", "", false, fmt.Errorf("decode submit response: %w (%s)", err, body)
	}
	return sr.Job.ID, sr.Job.Key, sr.Cached, nil
}

// Get fetches url and returns its body and status code.
func Get(url string) (string, int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	return string(b), resp.StatusCode, nil
}

// WaitHealthy polls /healthz, which is 200 once the daemon accepts work.
func WaitHealthy(base string, timeout time.Duration) error {
	return waitProbe(base+"/healthz", timeout)
}

// WaitReady polls /readyz, which only turns 200 after journal replay.
func WaitReady(base string, timeout time.Duration) error {
	return waitProbe(base+"/readyz", timeout)
}

func waitProbe(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if _, code, err := Get(url); err == nil && code == http.StatusOK {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("%s not 200 within %s", url, timeout)
}

// JobView is the part of GET /jobs/{id} the drills assert on.
type JobView struct {
	State    string `json:"state"`
	Error    string `json:"error"`
	Attempts int    `json:"attempts"`
	Restored bool   `json:"restored"`
}

// Job fetches one job's view.
func Job(base, id string) (JobView, error) {
	body, code, err := Get(base + "/jobs/" + id)
	if err != nil {
		return JobView{}, err
	}
	if code != http.StatusOK {
		return JobView{}, fmt.Errorf("GET /jobs/%s = %d: %s", id, code, body)
	}
	var v JobView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		return JobView{}, err
	}
	return v, nil
}

func terminal(state string) bool { return state == "done" || state == "failed" }

// WaitState polls until the job reaches the wanted (possibly transient)
// state. A job that skips past it to a terminal state is an error.
func WaitState(base, id, want string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v, err := Job(base, id)
		if err != nil {
			return err
		}
		if v.State == want {
			return nil
		}
		if terminal(v.State) {
			return fmt.Errorf("job %s reached %q (error %q) before %q", id, v.State, v.Error, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("job %s not %s within %s", id, want, timeout)
}

// WaitTerminal polls until the job settles, returning its final view.
func WaitTerminal(base, id string, timeout time.Duration) (JobView, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v, err := Job(base, id)
		if err != nil {
			return JobView{}, err
		}
		if terminal(v.State) {
			return v, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return JobView{}, fmt.Errorf("job %s not terminal within %s", id, timeout)
}

// WaitDone polls until the job settles and requires it to be done.
func WaitDone(base, id string, timeout time.Duration) error {
	v, err := WaitTerminal(base, id, timeout)
	if err != nil {
		return err
	}
	if v.State != "done" {
		return fmt.Errorf("job %s failed: %s", id, v.Error)
	}
	return nil
}

// ReferenceRun executes a spec to completion on a fresh memory-only
// instance and returns the rendered result: the bytes every other path
// to the same spec must reproduce exactly.
func ReferenceRun(bin, spec string) (string, error) {
	cmd, base, err := Start(bin, "-no-persist")
	if err != nil {
		return "", err
	}
	defer cmd.Process.Kill()
	if err := WaitReady(base, 10*time.Second); err != nil {
		return "", err
	}
	id, _, _, err := Submit(base, "", spec)
	if err != nil {
		return "", err
	}
	if err := WaitDone(base, id, 3*time.Minute); err != nil {
		return "", err
	}
	result, code, err := Get(base + "/jobs/" + id + "/result")
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("GET result = %d", code)
	}
	return result, StopGracefully(cmd)
}

// MetricValue extracts an integer sample from a /metrics body. The name
// may include a label set, e.g. `slipd_claims_total{outcome="done"}`.
func MetricValue(metrics, name string) (int, error) {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%d", &v); err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("metric %s not found", name)
}
