package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/store"
)

// postCampaign submits a campaign spec and returns the response plus
// the decoded view on 201.
func postCampaign(t *testing.T, ts *httptest.Server, key, body string) (*http.Response, CampaignView) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/campaigns", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /campaigns: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		Campaign CampaignView `json:"campaign"`
	}
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode campaign response: %v", err)
		}
	}
	return resp, out.Campaign
}

// getCampaign fetches the current view of a campaign.
func getCampaign(t *testing.T, ts *httptest.Server, id string) CampaignView {
	t.Helper()
	body, code := getBody(t, ts.URL+"/campaigns/"+id)
	if code != http.StatusOK {
		t.Fatalf("GET /campaigns/%s = %d: %s", id, code, body)
	}
	var v CampaignView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// awaitCampaign polls until the campaign reaches a terminal state.
func awaitCampaign(t *testing.T, ts *httptest.Server, id string) CampaignView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		v := getCampaign(t, ts, id)
		if v.State != campaignRunning {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still running: %+v", id, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func cellState(t *testing.T, v CampaignView, id string) CampaignCellView {
	t.Helper()
	for _, c := range v.Cells {
		if c.ID == id {
			return c
		}
	}
	t.Fatalf("campaign %s has no cell %q: %+v", v.ID, id, v.Cells)
	return CampaignCellView{}
}

func campCellBody(id string, nodes int, after ...string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"id":%q,"spec":{"kind":"run","kernel":"CG","nodes":%d}`, id, nodes)
	if len(after) > 0 {
		deps, _ := json.Marshal(after)
		fmt.Fprintf(&sb, `,"after":%s`, deps)
	}
	sb.WriteString("}")
	return sb.String()
}

// TestCampaignValidation: malformed DAGs are 400s with a diagnostic,
// never accepted.
func TestCampaignValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body, wantErr string
	}{
		{"empty", `{"cells":[]}`, "at least one cell"},
		{"unknown field", `{"cellz":[]}`, "unknown field"},
		{"trailing data", fmt.Sprintf(`{"cells":[%s]} {}`, campCellBody("a", 2)), "trailing data after campaign spec"},
		{"bad id", `{"cells":[{"id":"a/b","spec":{"kind":"run","kernel":"CG"}}]}`, "invalid id"},
		{"dup id", fmt.Sprintf(`{"cells":[%s,%s]}`, campCellBody("a", 2), campCellBody("a", 3)), "duplicate cell id"},
		{"unknown dep", fmt.Sprintf(`{"cells":[%s]}`, campCellBody("a", 2, "ghost")), "unknown cell"},
		{"self dep", fmt.Sprintf(`{"cells":[%s]}`, campCellBody("a", 2, "a")), "depends on itself"},
		{"dup edge", fmt.Sprintf(`{"cells":[%s,%s]}`, campCellBody("a", 2), campCellBody("b", 3, "a", "a")), "twice"},
		{"cycle", fmt.Sprintf(`{"cells":[%s,%s,%s]}`, campCellBody("a", 2, "c"), campCellBody("b", 3, "a"), campCellBody("c", 4, "b")), "cycle"},
		{"bad policy", fmt.Sprintf(`{"policy":"explode","cells":[%s]}`, campCellBody("a", 2)), "unknown policy"},
		{"bad priority", fmt.Sprintf(`{"priority":"urgent","cells":[%s]}`, campCellBody("a", 2)), "unknown priority"},
		{"bad cell spec", `{"cells":[{"id":"a","spec":{"kind":"run","kernel":"CG","nodes":999}}]}`, "out of range"},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/campaigns", strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		bufio.NewReader(resp.Body).WriteTo(&b)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, resp.StatusCode, b.String())
			continue
		}
		if !strings.Contains(b.String(), tc.wantErr) {
			t.Errorf("%s: error %q missing %q", tc.name, b.String(), tc.wantErr)
		}
	}
}

// TestCampaignRunsDAGInOrder: a three-cell chain completes, respects
// dependency order, and the identical middle cell collapses through
// the result cache.
func TestCampaignRunsDAGInOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := fmt.Sprintf(`{"name":"sweep","cells":[%s,%s,%s]}`,
		campCellBody("a", 5),
		campCellBody("b", 5, "a"), // identical spec to a → cache collapse
		campCellBody("c", 6, "b"),
	)
	resp, v := postCampaign(t, ts, "", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /campaigns = %d", resp.StatusCode)
	}
	if v.State != campaignRunning || v.TotalCells != 3 || v.Policy != PolicyContinue {
		t.Fatalf("created view = %+v", v)
	}
	final := awaitCampaign(t, ts, v.ID)
	if final.State != campaignDone || final.DoneCells != 3 || final.FailedCells != 0 {
		t.Fatalf("final = %+v", final)
	}
	if final.CollapsedCells != 1 || !cellState(t, final, "b").Collapsed {
		t.Fatalf("cell b should have collapsed through the cache: %+v", final)
	}
	if got := final.CacheCollapseRatio; got < 0.33 || got > 0.34 {
		t.Fatalf("collapse ratio = %v, want 1/3", got)
	}
	// The ratio is exported per campaign on /metrics.
	metrics, _ := getBody(t, ts.URL+"/metrics")
	for _, line := range []string{
		fmt.Sprintf(`slipd_campaign_cache_collapse_ratio{campaign="%s"} 0.3333`, v.ID),
		`slipd_campaigns{state="done"} 1`,
		`slipd_campaign_cells_total{outcome="done"} 3`,
		`slipd_campaign_cells_total{outcome="collapsed"} 1`,
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("metrics missing %q", line)
		}
	}
	// Each cell's job carries the campaign identity.
	cj := cellState(t, final, "c")
	jb, code := getBody(t, ts.URL+"/jobs/"+cj.Job)
	if code != http.StatusOK || !strings.Contains(jb, fmt.Sprintf(`"campaign":"%s"`, v.ID)) || !strings.Contains(jb, `"cell":"c"`) {
		t.Fatalf("cell job view = %d %s", code, jb)
	}
}

// haltGate wires the deterministic failure drill shared by the halt and
// continue tests: cell "a" panics in the worker, and any other cell is
// held until the campaign has processed a's failure, so the skip
// decision is made before surviving cells run.
func haltGate(t *testing.T, s *Server, campID *atomic.Value) {
	t.Helper()
	s.testDuringRun = func(j *Job) {
		if j.cell == "a" {
			panic("injected cell failure")
		}
	}
	s.testBeforeRun = func(j *Job) {
		if j.campaign == "" || j.cell == "a" {
			return
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			id, _ := campID.Load().(string)
			s.campMu.Lock()
			camp := s.campaigns[id]
			s.campMu.Unlock()
			if camp != nil {
				camp.mu.Lock()
				settled := camp.cells["a"].state == cellFailed
				camp.mu.Unlock()
				if settled {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Errorf("cell a never settled failed")
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestCampaignHaltSkipsPending: under policy halt, a cell failure
// deterministically skips every not-yet-launched cell; already-queued
// cells finish.
func TestCampaignHaltSkipsPending(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var campID atomic.Value
	haltGate(t, s, &campID)

	body := fmt.Sprintf(`{"policy":"halt","cells":[%s,%s,%s]}`,
		campCellBody("a", 5),      // fails
		campCellBody("b", 6),      // independent, launched at submit
		campCellBody("c", 7, "b"), // pending when a fails → halted skip
	)
	resp, v := postCampaign(t, ts, "", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	campID.Store(v.ID)
	final := awaitCampaign(t, ts, v.ID)
	if final.State != campaignFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if a := cellState(t, final, "a"); a.State != cellFailed || !strings.Contains(a.Error, "panic") {
		t.Fatalf("cell a = %+v", a)
	}
	if b := cellState(t, final, "b"); b.State != cellDone {
		t.Fatalf("cell b = %+v, want done (already launched when the halt hit)", b)
	}
	c := cellState(t, final, "c")
	if c.State != cellSkipped || !strings.Contains(c.Error, "halted") {
		t.Fatalf("cell c = %+v, want skipped by halt", c)
	}
	if final.DoneCells != 1 || final.FailedCells != 1 || final.SkippedCells != 1 {
		t.Fatalf("rollup = %+v", final)
	}
}

// TestCampaignContinueSkipsOnlyDependents: under the default continue
// policy the failure cascades to transitive dependents and nothing
// else.
func TestCampaignContinueSkipsOnlyDependents(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var campID atomic.Value
	haltGate(t, s, &campID)

	body := fmt.Sprintf(`{"cells":[%s,%s,%s,%s]}`,
		campCellBody("a", 5),      // fails
		campCellBody("b", 6),      // independent → runs
		campCellBody("c", 7, "a"), // direct dependent → skipped
		campCellBody("d", 8, "c"), // transitive dependent → skipped
	)
	resp, v := postCampaign(t, ts, "", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	campID.Store(v.ID)
	final := awaitCampaign(t, ts, v.ID)
	if final.State != campaignFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if b := cellState(t, final, "b"); b.State != cellDone {
		t.Fatalf("cell b = %+v, want done (continue policy keeps independent work)", b)
	}
	for _, id := range []string{"c", "d"} {
		c := cellState(t, final, id)
		if c.State != cellSkipped || !strings.Contains(c.Error, "dependency") {
			t.Fatalf("cell %s = %+v, want dependency skip", id, c)
		}
	}
}

// TestCampaignAdmissionCharge: a campaign is charged per cell, so a
// rate-limited tenant's next submission refuses 429 with Retry-After.
func TestCampaignAdmissionCharge(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Tenants: []TenantConfig{
			{Name: "metered", Key: "sk-m", TenantLimits: TenantLimits{Rate: 0.001, Burst: 2}},
		},
	})
	// Two cells drain the whole burst (soft drain: admissible while at
	// least one token remains).
	body := fmt.Sprintf(`{"cells":[%s,%s]}`, campCellBody("a", 2), campCellBody("b", 3))
	resp, _ := postCampaign(t, ts, "sk-m", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first campaign = %d", resp.StatusCode)
	}
	resp, _ = postCampaign(t, ts, "sk-m", fmt.Sprintf(`{"cells":[%s]}`, campCellBody("a", 4)))
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("second campaign = %d retry-after=%q, want 429", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestCampaignSSERollups: the events stream replays progress rollups
// and closes with a terminal state event.
func TestCampaignSSERollups(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := fmt.Sprintf(`{"cells":[%s,%s]}`, campCellBody("a", 5), campCellBody("b", 6, "a"))
	resp, v := postCampaign(t, ts, "", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	awaitCampaign(t, ts, v.ID)

	stream, code := getBody(t, ts.URL+"/campaigns/"+v.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events = %d", code)
	}
	for _, want := range []string{
		"campaign created: 2 cells",
		"cell a done (1/2 done",
		"cell b done (2/2 done",
		"event: state\ndata: done",
	} {
		if !strings.Contains(stream, want) {
			t.Errorf("SSE stream missing %q:\n%s", want, stream)
		}
	}
}

// TestCampaignCancel: DELETE cancels queued cells, skips pending ones,
// and settles the campaign as cancelled.
func TestCampaignCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	s.testBeforeRun = func(*Job) { <-gate }
	defer close(gate)

	// Plug the worker with an unrelated job so campaign cells stay put.
	submitAs(t, ts, "", specWithNodes(2, ""))
	body := fmt.Sprintf(`{"cells":[%s,%s]}`, campCellBody("a", 5), campCellBody("b", 6, "a"))
	resp, v := postCampaign(t, ts, "", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", dresp.StatusCode)
	}
	final := awaitCampaign(t, ts, v.ID)
	if final.State != campaignCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if b := cellState(t, final, "b"); b.State != cellSkipped {
		t.Fatalf("pending cell b = %+v, want skipped", b)
	}
}

// TestCampaignNotFound: unknown ids 404 on every campaign route.
func TestCampaignNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, url := range []string{"/campaigns/campaign-99", "/campaigns/campaign-99/events"} {
		if _, code := getBody(t, ts.URL+url); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", url, code)
		}
	}
}

// TestCampaignResumesAfterRestart: a running campaign journaled before
// a crash is rebuilt on open and driven to completion.
func TestCampaignResumesAfterRestart(t *testing.T) {
	dir := t.TempDir()
	spec := CampaignSpec{
		Name:   "resume",
		Policy: PolicyContinue,
		Cells: []CampaignCellSpec{
			{ID: "a", Spec: JobSpec{Spec: experiments.Spec{Kind: experiments.KindRun, Kernel: "CG", Nodes: 5}}},
			{ID: "b", After: []string{"a"}, Spec: JobSpec{Spec: experiments.Spec{Kind: experiments.KindRun, Kernel: "CG", Nodes: 6}}},
		},
	}
	specJSON, _ := json.Marshal(spec)
	fabricateJournal(t, dir,
		store.Record{Job: "campaign-3", Campaign: "campaign-3", State: campaignRunning, Spec: specJSON, Tenant: DefaultTenant},
	)
	s, ts := openDurable(t, durableCfg(dir))
	defer shutdown(t, s)
	final := awaitCampaign(t, ts, "campaign-3")
	if final.State != campaignDone || final.DoneCells != 2 {
		t.Fatalf("resumed campaign = %+v", final)
	}
	// The id counter moved past the replayed campaign.
	resp, v := postCampaign(t, ts, "", fmt.Sprintf(`{"cells":[%s]}`, campCellBody("solo", 7)))
	if resp.StatusCode != http.StatusCreated || v.ID == "campaign-3" {
		t.Fatalf("new campaign after replay = %d %s", resp.StatusCode, v.ID)
	}
}

// TestCampaignRestartSkipsDoneCells: cells journaled done are not
// re-run; only the unfinished remainder executes.
func TestCampaignRestartSkipsDoneCells(t *testing.T) {
	dir := t.TempDir()

	// First life: run a one-cell campaign to completion so the cache
	// and journal hold cell a's result.
	a, ats := openDurable(t, durableCfg(dir))
	resp, v := postCampaign(t, ats, "", fmt.Sprintf(`{"cells":[%s]}`, campCellBody("a", 5)))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	awaitCampaign(t, ats, v.ID)
	shutdown(t, a)

	// Second life: the campaign restores terminal without re-running.
	b, bts := openDurable(t, durableCfg(dir))
	defer shutdown(t, b)
	final := getCampaign(t, bts, v.ID)
	if final.State != campaignDone || final.DoneCells != 1 {
		t.Fatalf("restored campaign = %+v", final)
	}
	if b.RunsTotal() != 0 {
		t.Fatalf("restart re-ran %d jobs, want 0", b.RunsTotal())
	}
}

// journaledCampaign fabricates a running campaign's journal record
// (plus any cell records) under id, as a crashed slipd leaves them.
func journaledCampaign(t *testing.T, dir, id string, spec CampaignSpec, cells ...store.Record) {
	t.Helper()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs := []store.Record{{Job: id, Campaign: id, State: campaignRunning, Spec: specJSON, Tenant: DefaultTenant}}
	for _, cr := range cells {
		cr.Job = id + "/" + cr.Cell
		cr.Campaign = id
		recs = append(recs, cr)
	}
	fabricateJournal(t, dir, recs...)
}

func runCell(id string, nodes int, after ...string) CampaignCellSpec {
	return CampaignCellSpec{ID: id, After: after, Spec: JobSpec{Spec: experiments.Spec{Kind: experiments.KindRun, Kernel: "CG", Nodes: nodes}}}
}

// TestCampaignReplayHaltSkipsPending: a halt campaign whose journal
// holds one failed cell restarts with every pending cell skipped, settles
// failed, and runs nothing.
func TestCampaignReplayHaltSkipsPending(t *testing.T) {
	dir := t.TempDir()
	journaledCampaign(t, dir, "campaign-1",
		CampaignSpec{Policy: PolicyHalt, Cells: []CampaignCellSpec{runCell("a", 5), runCell("b", 6), runCell("c", 7, "b")}},
		store.Record{Cell: "a", State: cellFailed, Error: "injected"},
	)
	s, ts := openDurable(t, durableCfg(dir))
	defer shutdown(t, s)
	final := awaitCampaign(t, ts, "campaign-1")
	if final.State != campaignFailed || final.FailedCells != 1 || final.SkippedCells != 2 || final.DoneCells != 0 {
		t.Fatalf("replayed campaign = %+v", final)
	}
	if a := cellState(t, final, "a"); a.State != cellFailed || a.Error != "injected" {
		t.Fatalf("cell a = %+v, want the journaled failure", a)
	}
	for _, id := range []string{"b", "c"} {
		if c := cellState(t, final, id); c.State != cellSkipped || c.Error != "halted: a cell failed before restart" {
			t.Fatalf("cell %s = %+v, want halted skip", id, c)
		}
	}
	if n := s.RunsTotal(); n != 0 {
		t.Fatalf("replay ran %d jobs, want 0", n)
	}
}

// TestCampaignReplayContinueSkipsDependents: a continue campaign whose
// journal holds one failed cell skips only that cell's dependents after
// the restart and runs the independent cell.
func TestCampaignReplayContinueSkipsDependents(t *testing.T) {
	dir := t.TempDir()
	journaledCampaign(t, dir, "campaign-1",
		CampaignSpec{Cells: []CampaignCellSpec{runCell("a", 5), runCell("b", 6), runCell("c", 7, "a"), runCell("d", 8, "c")}},
		store.Record{Cell: "a", State: cellFailed, Error: "injected"},
	)
	s, ts := openDurable(t, durableCfg(dir))
	defer shutdown(t, s)
	final := awaitCampaign(t, ts, "campaign-1")
	if final.State != campaignFailed || final.DoneCells != 1 || final.FailedCells != 1 || final.SkippedCells != 2 {
		t.Fatalf("replayed campaign = %+v", final)
	}
	if b := cellState(t, final, "b"); b.State != cellDone || b.Job == "" {
		t.Fatalf("independent cell b = %+v, want done", b)
	}
	if c := cellState(t, final, "c"); c.State != cellSkipped || c.Error != `skipped: dependency "a" did not complete` {
		t.Fatalf("cell c = %+v, want dependency skip", c)
	}
	if d := cellState(t, final, "d"); d.State != cellSkipped || d.Error != `skipped: dependency "c" did not complete` {
		t.Fatalf("cell d = %+v, want transitive dependency skip", d)
	}
	if n := s.RunsTotal(); n != 1 {
		t.Fatalf("replay ran %d jobs, want 1 (cell b)", n)
	}
}

// TestCampaignReplayDoneCellReleasesDependent: a cell journaled done
// (collapsed) counts toward the rollup after the restart and releases
// its dependent, which runs.
func TestCampaignReplayDoneCellReleasesDependent(t *testing.T) {
	dir := t.TempDir()
	c, err := compile(runCell("a", 5).Spec)
	if err != nil {
		t.Fatal(err)
	}
	keyA, err := c.cacheKey()
	if err != nil {
		t.Fatal(err)
	}
	journaledCampaign(t, dir, "campaign-1",
		CampaignSpec{Cells: []CampaignCellSpec{runCell("a", 5), runCell("b", 6, "a")}},
		store.Record{Cell: "a", State: cellDone, Key: keyA, Cached: true},
	)
	s, ts := openDurable(t, durableCfg(dir))
	defer shutdown(t, s)
	final := awaitCampaign(t, ts, "campaign-1")
	if final.State != campaignDone || final.DoneCells != 2 || final.CollapsedCells != 1 || final.CacheCollapseRatio != 0.5 {
		t.Fatalf("replayed campaign = %+v", final)
	}
	if a := cellState(t, final, "a"); a.State != cellDone || !a.Collapsed || a.Key != keyA {
		t.Fatalf("cell a = %+v, want the journaled collapsed done", a)
	}
	if b := cellState(t, final, "b"); b.State != cellDone || b.Collapsed {
		t.Fatalf("cell b = %+v, want a fresh done run", b)
	}
	if n := s.RunsTotal(); n != 1 {
		t.Fatalf("replay ran %d jobs, want 1 (cell b)", n)
	}
	metrics, _ := getBody(t, ts.URL+"/metrics")
	for _, line := range []string{
		`slipd_campaign_cells_total{outcome="done"} 2`,
		`slipd_campaign_cells_total{outcome="collapsed"} 1`,
		`slipd_campaign_cache_collapse_ratio{campaign="campaign-1"} 0.5000`,
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("metrics missing %q", line)
		}
	}
}

// TestCampaignReplayUnreplayableSpec: a journaled campaign whose spec no
// longer compiles restores as a failed stub under its id, and new
// campaign ids move past it.
func TestCampaignReplayUnreplayableSpec(t *testing.T) {
	dir := t.TempDir()
	fabricateJournal(t, dir, store.Record{Job: "campaign-7", Campaign: "campaign-7", State: campaignRunning,
		Spec: json.RawMessage(`{"cells":[]}`), Tenant: DefaultTenant})
	s, ts := openDurable(t, durableCfg(dir))
	defer shutdown(t, s)
	v := getCampaign(t, ts, "campaign-7")
	if v.State != campaignFailed || v.TotalCells != 0 || v.Tenant != DefaultTenant {
		t.Fatalf("stub = %+v, want a failed campaign with no cells", v)
	}
	stream, code := getBody(t, ts.URL+"/campaigns/campaign-7/events")
	if code != http.StatusOK || !strings.Contains(stream, "unreplayable campaign spec: campaign requires at least one cell") ||
		!strings.HasSuffix(stream, "event: state\ndata: failed\n\n") {
		t.Fatalf("stub events = %d:\n%s", code, stream)
	}
	resp, next := postCampaign(t, ts, "", fmt.Sprintf(`{"cells":[%s]}`, campCellBody("solo", 7)))
	if resp.StatusCode != http.StatusCreated || next.ID != "campaign-8" {
		t.Fatalf("next campaign = %d %s, want campaign-8", resp.StatusCode, next.ID)
	}
}

// TestCampaignHaltSSEExactRollups pins the rollup stream of a halt
// campaign whose first cell fails: the skip the failure causes comes
// before the failed cell's own line, and every count is exact.
func TestCampaignHaltSSEExactRollups(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var campID atomic.Value
	haltGate(t, s, &campID)

	body := fmt.Sprintf(`{"policy":"halt","cells":[%s,%s,%s]}`,
		campCellBody("a", 5), campCellBody("b", 6), campCellBody("c", 7, "b"))
	resp, v := postCampaign(t, ts, "", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	campID.Store(v.ID)
	awaitCampaign(t, ts, v.ID)

	stream, code := getBody(t, ts.URL+"/campaigns/"+v.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events = %d", code)
	}
	var want strings.Builder
	for _, line := range []string{
		"campaign created: 3 cells, policy halt",
		"cell c skipped (0/3 done, 1 failed, 1 skipped, 0 collapsed)",
		"cell a failed (0/3 done, 1 failed, 1 skipped, 0 collapsed)",
		"cell b done (1/3 done, 1 failed, 1 skipped, 0 collapsed)",
		"campaign failed",
	} {
		fmt.Fprintf(&want, "event: progress\ndata: %s\n\n", line)
	}
	want.WriteString("event: state\ndata: failed\n\n")
	if stream != want.String() {
		t.Fatalf("SSE stream:\n%s\nwant:\n%s", stream, want.String())
	}
}

// TestCampaignCancelSparesCollapsedJob: a campaign cell that collapsed
// onto another tenant's queued job detaches as skipped when the campaign
// is cancelled; the other tenant's job keeps running and finishes done.
func TestCampaignCancelSparesCollapsedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Tenants: []TenantConfig{
		{Name: "a", Key: "sk-a"},
		{Name: "b", Key: "sk-b"},
	}})
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	s.testBeforeRun = func(*Job) { <-gate }

	// Plug the worker so tenant a's job stays queued.
	submitAs(t, ts, "sk-a", specWithNodes(2, ""))
	resp, mine := submitAs(t, ts, "sk-a", specWithNodes(5, ""))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant a submit = %d", resp.StatusCode)
	}
	cresp, v := postCampaign(t, ts, "sk-b", fmt.Sprintf(`{"cells":[%s]}`, campCellBody("x", 5)))
	if cresp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant b campaign = %d", cresp.StatusCode)
	}
	if x := cellState(t, v, "x"); x.Job != mine.Job.ID {
		t.Fatalf("cell x = %+v, want it collapsed onto %s", x, mine.Job.ID)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+v.ID, nil)
	req.Header.Set("X-API-Key", "sk-b")
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	release()

	if jv := await(t, s, mine.Job.ID).snapshot(); jv.State != StateDone {
		t.Fatalf("tenant a's job = %s (%s), want done", jv.State, jv.Error)
	}
	final := awaitCampaign(t, ts, v.ID)
	if final.State != campaignCancelled {
		t.Fatalf("campaign state = %s, want cancelled", final.State)
	}
	if x := cellState(t, final, "x"); x.State != cellSkipped || x.Error != "cancelled by client" {
		t.Fatalf("cell x = %+v, want skipped by the cancel", x)
	}
}

// TestCampaignCancelQueuedCellFreesSpec: cancelling a campaign whose
// cell is still queued takes that cell's job out of single-flight, so a
// later submission of the same spec runs instead of inheriting the
// campaign's cancellation.
func TestCampaignCancelQueuedCellFreesSpec(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	s.testBeforeRun = func(*Job) { <-gate }

	// Plug the worker so the campaign's cell stays queued.
	submitAs(t, ts, "", specWithNodes(2, ""))
	resp, v := postCampaign(t, ts, "", fmt.Sprintf(`{"cells":[%s]}`, campCellBody("a", 5)))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if final := awaitCampaign(t, ts, v.ID); final.State != campaignCancelled {
		t.Fatalf("campaign = %s, want cancelled", final.State)
	}
	release()

	_, sr := submitAs(t, ts, "", specWithNodes(5, ""))
	if jv := await(t, s, sr.Job.ID).snapshot(); jv.State != StateDone {
		t.Fatalf("later submission of the cell's spec = %s (%s), want done", jv.State, jv.Error)
	}
}

// TestCampaignCancelWhileLaunchRefused: a campaign cancelled while its
// ready cell is being refused by a full queue settles cancelled with the
// cell skipped; the refused launch never strands it running.
func TestCampaignCancelWhileLaunchRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	s.testBeforeRun = func(*Job) { <-gate }

	// One job holds the worker, one fills the queue: the cell's launch
	// is refused until the gate opens.
	submitAs(t, ts, "", specWithNodes(2, ""))
	waitQueued := time.Now().Add(10 * time.Second)
	for s.sched.depth() != 0 && time.Now().Before(waitQueued) {
		time.Sleep(time.Millisecond)
	}
	submitAs(t, ts, "", specWithNodes(3, ""))
	resp, v := postCampaign(t, ts, "", fmt.Sprintf(`{"cells":[%s]}`, campCellBody("x", 5)))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	if x := cellState(t, v, "x"); x.State != cellPending {
		t.Fatalf("cell x = %+v, want pending behind the full queue", x)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	release()

	final := awaitCampaign(t, ts, v.ID)
	if final.State != campaignCancelled {
		t.Fatalf("campaign = %s, want cancelled", final.State)
	}
	if x := cellState(t, final, "x"); x.State != cellSkipped || x.Job != "" {
		t.Fatalf("cell x = %+v, want skipped without a job", x)
	}
}
