// Command smokeoverload is the multi-tenant overload drill behind
// `make smoke-overload`. It boots a slipd with a rate-limited flood
// tenant and an unlimited probe tenant, then asserts the admission and
// fairness contract end to end over real HTTP:
//
//  1. The flood tenant bursts past its token bucket and is refused with
//     429 + Retry-After while the daemon stays healthy.
//  2. The probe tenant's interactive job completes while the flood
//     tenant's backlog is still queued — no cross-tenant starvation.
//  3. The probe result is byte-identical to the same spec run on a
//     second, completely unloaded slipd: overload must shape *when*
//     work runs, never *what* it produces.
//  4. A halt-policy campaign whose first cell is cancelled mid-run
//     deterministically skips its pending cell and settles failed, and
//     the per-tenant and campaign counters land on /metrics.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/tools/internal/drill"
)

const (
	floodKey = "sk-flood"
	probeKey = "sk-probe"

	probeSpec = `{"kind":"run","kernel":"CG","nodes":4}`
	// slowCell runs long enough that a DELETE reliably lands mid-run.
	slowCell = `{"kind":"static","kernels":["CG"],"nodes":8,"scale":"small"}`
)

func main() {
	bin := "bin/slipd"
	if len(os.Args) > 1 {
		bin = os.Args[1]
	}
	if err := run(bin); err != nil {
		fmt.Fprintln(os.Stderr, "smoke-overload: FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("smoke-overload: PASSED")
}

func run(bin string) error {
	// Flood tenant: weight 1, 0.5 jobs/sec, burst 2, backlog 8. Probe
	// tenant: unlimited. Both admission domains on one worker, so
	// fairness is decided purely by the scheduler.
	cmd, base, err := drill.Start(bin, "-no-persist",
		"-tenant", "flood:"+floodKey+":1:0.5:2:8",
		"-tenant", "probe:"+probeKey)
	if err != nil {
		return err
	}
	defer cmd.Process.Kill()
	if err := drill.WaitHealthy(base, 10*time.Second); err != nil {
		return err
	}

	// Phase 1: burst the flood tenant. Two submissions fit the burst;
	// the rest must come back 429 with a Retry-After hint, not 503 and
	// not success.
	admitted, refused := 0, 0
	for i := 0; i < 8; i++ {
		spec := fmt.Sprintf(`{"kind":"run","kernel":"CG","nodes":%d,"priority":"batch"}`, 8+i)
		resp, body, err := drill.Post(base+"/jobs", floodKey, spec)
		if err != nil {
			return err
		}
		switch resp.StatusCode {
		case http.StatusCreated:
			admitted++
		case http.StatusTooManyRequests:
			refused++
			if resp.Header.Get("Retry-After") == "" {
				return fmt.Errorf("flood 429 missing Retry-After header")
			}
		default:
			return fmt.Errorf("flood submission %d = %d, want 201 or 429: %s", i, resp.StatusCode, body)
		}
	}
	if admitted != 2 || refused != 6 {
		return fmt.Errorf("flood: admitted=%d refused=%d, want 2/6 (burst 2)", admitted, refused)
	}
	fmt.Fprintf(os.Stderr, "smoke-overload: flood tenant: %d admitted, %d refused with Retry-After\n", admitted, refused)

	// Phase 2: the probe tenant submits one interactive job while the
	// flood backlog is queued; it must complete promptly.
	probeID, _, _, err := drill.Submit(base, probeKey, probeSpec)
	if err != nil {
		return fmt.Errorf("probe submission: %w", err)
	}
	if err := drill.WaitDone(base, probeID, time.Minute); err != nil {
		return fmt.Errorf("probe under flood: %w", err)
	}
	loaded, code, err := drill.Get(base + "/jobs/" + probeID + "/result")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("probe result = %d", code)
	}
	fmt.Fprintln(os.Stderr, "smoke-overload: probe tenant completed under flood")

	// Phase 3: halt-policy campaign. Cell a is a slow suite we cancel
	// mid-run; b is independent; c depends on b and must be skipped by
	// the halt — deterministically, because c cannot launch before b
	// finishes and the halt lands while b is still queued or running.
	campBody := fmt.Sprintf(`{"name":"drill","policy":"halt","priority":"batch","cells":[`+
		`{"id":"a","spec":%s},`+
		`{"id":"b","spec":{"kind":"run","kernel":"CG","nodes":6}},`+
		`{"id":"c","after":["b"],"spec":{"kind":"run","kernel":"CG","nodes":7}}]}`, slowCell)
	resp, body, err := drill.Post(base+"/campaigns", probeKey, campBody)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST /campaigns = %d: %s", resp.StatusCode, body)
	}
	var created struct {
		Campaign struct {
			ID    string `json:"id"`
			Cells []struct {
				ID  string `json:"id"`
				Job string `json:"job"`
			} `json:"cells"`
		} `json:"campaign"`
	}
	if err := json.Unmarshal([]byte(body), &created); err != nil {
		return fmt.Errorf("decode campaign: %w (%s)", err, body)
	}
	campID := created.Campaign.ID
	var cellAJob string
	for _, c := range created.Campaign.Cells {
		if c.ID == "a" {
			cellAJob = c.Job
		}
	}
	if cellAJob == "" {
		return fmt.Errorf("campaign view has no job id for cell a: %s", body)
	}
	if err := drill.WaitState(base, cellAJob, "running", time.Minute); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/jobs/"+cellAJob, nil)
	if err != nil {
		return err
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		return fmt.Errorf("DELETE cell a job = %d", dresp.StatusCode)
	}
	camp, err := waitCampaignTerminal(base, campID, 2*time.Minute)
	if err != nil {
		return err
	}
	if camp.State != "failed" {
		return fmt.Errorf("campaign state = %q, want failed", camp.State)
	}
	states := map[string]cellView{}
	for _, c := range camp.Cells {
		states[c.ID] = c
	}
	if states["a"].State != "failed" {
		return fmt.Errorf("cell a = %+v, want failed (cancelled)", states["a"])
	}
	if states["b"].State != "done" {
		return fmt.Errorf("cell b = %+v, want done (already launched when halt hit)", states["b"])
	}
	if states["c"].State != "skipped" || !strings.Contains(states["c"].Error, "halted") {
		return fmt.Errorf("cell c = %+v, want skipped by halt", states["c"])
	}
	fmt.Fprintf(os.Stderr, "smoke-overload: halt campaign settled failed; cell c skipped (%q)\n", states["c"].Error)

	// Metrics: admission refusals, probe dispatches, and the campaign
	// rollup are all visible.
	metrics, _, err := drill.Get(base + "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		`slipd_tenant_limited_total{tenant="flood",reason="rate"} 6`,
		`slipd_tenant_admitted_total{tenant="flood"} 2`,
		`slipd_campaigns{state="failed"} 1`,
		`slipd_campaign_cells_total{outcome="skipped"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("metrics missing %q", want)
		}
	}

	if err := drill.StopGracefully(cmd); err != nil {
		return err
	}

	// Phase 4: the same probe spec on a fresh, unloaded slipd must
	// produce byte-identical output — overload shapes scheduling, never
	// results.
	unloaded, err := drill.ReferenceRun(bin, probeSpec)
	if err != nil {
		return fmt.Errorf("unloaded reference run: %w", err)
	}
	if loaded != unloaded {
		return fmt.Errorf("probe result under flood differs from unloaded run:\n--- loaded ---\n%s\n--- unloaded ---\n%s", loaded, unloaded)
	}
	fmt.Fprintln(os.Stderr, "smoke-overload: probe result byte-identical to unloaded run")
	return nil
}

type cellView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

type campaignTerminalView struct {
	State string     `json:"state"`
	Cells []cellView `json:"cells"`
}

func waitCampaignTerminal(base, id string, timeout time.Duration) (campaignTerminalView, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		body, code, err := drill.Get(base + "/campaigns/" + id)
		if err != nil {
			return campaignTerminalView{}, err
		}
		if code != http.StatusOK {
			return campaignTerminalView{}, fmt.Errorf("GET /campaigns/%s = %d: %s", id, code, body)
		}
		var v campaignTerminalView
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			return campaignTerminalView{}, err
		}
		if v.State != "running" {
			return v, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return campaignTerminalView{}, fmt.Errorf("campaign %s not terminal within %s", id, timeout)
}
