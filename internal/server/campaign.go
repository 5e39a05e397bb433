package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
)

// Campaigns make the unit of submission a DAG of job specs: cells with
// dependency edges, validated (cycles rejected) at admission, launched
// as ordinary jobs when their dependencies complete. A failing cell
// triggers the campaign's failure policy — "continue" skips only the
// transitive dependents of the failure, "halt" additionally skips
// every cell not yet launched (caesium's Phase 1.3 semantics). Cells
// run through the same single-flight and content-addressed cache as
// direct submissions, so popular sweeps collapse to near-zero marginal
// work; the per-campaign cache-collapse ratio measures exactly that.
// Campaign admission charges the submitting tenant's token bucket for
// the whole cell count up front; the cells themselves launch uncharged.

// Campaign failure policies.
const (
	PolicyContinue = "continue"
	PolicyHalt     = "halt"
)

// Campaign states.
const (
	campaignRunning   = "running"
	campaignDone      = "done"
	campaignFailed    = "failed"
	campaignCancelled = "cancelled"
)

// Cell states. A queued cell's view upgrades to "running" while its
// job runs; the cell itself tracks only launch/terminal transitions.
const (
	cellPending = "pending"
	cellQueued  = "queued"
	cellDone    = "done"
	cellFailed  = "failed"
	cellSkipped = "skipped"
)

// Validation bounds: a campaign is a bounded DAG, not a bulk import
// channel — anything bigger should be several campaigns.
const (
	maxCampaignCells = 128
	maxCellIDLen     = 64
	maxCampaignName  = 128
)

// campaignRetryDelay paces cell launches that hit the global queue
// bound: the cells are already admitted, they just wait for room.
const campaignRetryDelay = 100 * time.Millisecond

// CampaignSpec is the POST /campaigns request body.
type CampaignSpec struct {
	// Name is an optional operator label.
	Name string `json:"name,omitempty"`
	// Policy is the failure policy: "continue" (default) skips only
	// dependents of a failed cell; "halt" also skips everything not yet
	// launched.
	Policy string `json:"policy,omitempty"`
	// Priority, when set, overrides every cell's scheduling class.
	Priority string `json:"priority,omitempty"`
	// Cells is the DAG: each cell is a job spec plus the ids it runs
	// after. Order is the deterministic tie-break everywhere.
	Cells []CampaignCellSpec `json:"cells"`
}

// CampaignCellSpec is one DAG node.
type CampaignCellSpec struct {
	ID    string   `json:"id"`
	After []string `json:"after,omitempty"`
	Spec  JobSpec  `json:"spec"`
}

// decodeCampaignSpec parses a campaign strictly, like decodeSpec.
func decodeCampaignSpec(r io.Reader) (CampaignSpec, error) {
	var cs CampaignSpec
	if err := decodeStrict(r, &cs, "campaign spec"); err != nil {
		return CampaignSpec{}, err
	}
	return cs, nil
}

// compiledCampaign is a validated campaign: normalized spec, compiled
// cells, and a proven-acyclic dependency graph.
type compiledCampaign struct {
	spec  CampaignSpec // normalized (canonical policy/priority, normalized cell specs)
	cells []compiledCell
}

type compiledCell struct {
	id    string
	after []string
	c     *compiledSpec
}

// validCellID enforces the cell id charset ([A-Za-z0-9._-], 1..64).
// "/" is deliberately excluded: cell journal records live under
// "<campaign>/<cell>" ids.
func validCellID(id string) bool {
	if id == "" || len(id) > maxCellIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// compileCampaign validates a campaign spec: bounds, id uniqueness,
// well-formed dependency edges, cycle rejection (Kahn), and a compile
// of every cell spec. All user errors surface as 400s.
func compileCampaign(cs CampaignSpec) (*compiledCampaign, error) {
	if len(cs.Cells) == 0 {
		return nil, fmt.Errorf("campaign requires at least one cell")
	}
	if len(cs.Cells) > maxCampaignCells {
		return nil, fmt.Errorf("campaign has %d cells, maximum %d", len(cs.Cells), maxCampaignCells)
	}
	if len(cs.Name) > maxCampaignName {
		return nil, fmt.Errorf("campaign name longer than %d bytes", maxCampaignName)
	}
	cc := &compiledCampaign{spec: cs}

	switch strings.ToLower(cs.Policy) {
	case "":
		cc.spec.Policy = PolicyContinue
	case PolicyContinue, PolicyHalt:
		cc.spec.Policy = strings.ToLower(cs.Policy)
	default:
		return nil, fmt.Errorf("unknown policy %q (valid: continue, halt)", cs.Policy)
	}
	switch strings.ToLower(cs.Priority) {
	case "":
		cc.spec.Priority = ""
	case PriorityNameInteractive, PriorityNameBatch:
		cc.spec.Priority = strings.ToLower(cs.Priority)
	default:
		return nil, fmt.Errorf("unknown priority %q (valid: interactive, batch)", cs.Priority)
	}

	index := map[string]int{}
	for i, cell := range cs.Cells {
		if !validCellID(cell.ID) {
			return nil, fmt.Errorf("cell %d: invalid id %q (1-%d chars of [A-Za-z0-9._-])", i, cell.ID, maxCellIDLen)
		}
		if _, dup := index[cell.ID]; dup {
			return nil, fmt.Errorf("duplicate cell id %q", cell.ID)
		}
		index[cell.ID] = i
	}

	// Dependency edges: every referenced id exists, no self-edges, no
	// duplicate edges.
	indegree := make([]int, len(cs.Cells))
	dependents := make([][]int, len(cs.Cells))
	for i, cell := range cs.Cells {
		seen := map[string]bool{}
		for _, dep := range cell.After {
			di, ok := index[dep]
			if !ok {
				return nil, fmt.Errorf("cell %q depends on unknown cell %q", cell.ID, dep)
			}
			if di == i {
				return nil, fmt.Errorf("cell %q depends on itself", cell.ID)
			}
			if seen[dep] {
				return nil, fmt.Errorf("cell %q lists dependency %q twice", cell.ID, dep)
			}
			seen[dep] = true
			indegree[i]++
			dependents[di] = append(dependents[di], i)
		}
	}

	// Kahn's algorithm: if the topological order doesn't reach every
	// cell, the rest sit on a cycle.
	var ready []int
	for i, d := range indegree {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	processed := 0
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		processed++
		for _, d := range dependents[i] {
			indegree[d]--
			if indegree[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if processed < len(cs.Cells) {
		for i, d := range indegree {
			if d > 0 {
				return nil, fmt.Errorf("dependency cycle involving cell %q", cs.Cells[i].ID)
			}
		}
	}

	cc.cells = make([]compiledCell, len(cs.Cells))
	for i, cell := range cs.Cells {
		spec := cell.Spec
		if cc.spec.Priority != "" {
			spec.Priority = cc.spec.Priority
		}
		c, err := compile(spec)
		if err != nil {
			return nil, fmt.Errorf("cell %q: %v", cell.ID, err)
		}
		cc.cells[i] = compiledCell{id: cell.ID, after: cell.After, c: c}
		cc.spec.Cells[i].Spec = c.spec // journal the normalized form
	}
	return cc, nil
}

// campaign is one live (or restored) campaign. All mutable state is
// guarded by mu. Lock order: camp.mu may be held while taking s.mu or
// the scheduler's mutex, never the reverse.
type campaign struct {
	ID     string
	broker *broker // progress rollups for GET /campaigns/{id}/events

	mu        sync.Mutex
	name      string
	tenant    string
	policy    string
	priority  string
	state     string
	halted    bool // no further pending cells launch
	cancelled bool
	created   time.Time
	finished  time.Time
	order     []string
	cells     map[string]*campCell

	done, failed, skipped, collapsed int
}

type campCell struct {
	id         string
	after      []string
	spec       JobSpec // normalized
	key        string  // cache key, filled at launch
	state      string
	jobID      string
	errMsg     string
	collapsed  bool // answered by cache or single-flight dedup, not a fresh run
	remaining  int  // unmet dependencies
	dependents []string
}

// buildCampaign materializes a compiled campaign under an id (shared
// by fresh admission and journal rebuild). Not yet registered: nothing
// else can see it, so no locking here.
func buildCampaign(id string, cc *compiledCampaign, tenant string) *campaign {
	camp := &campaign{
		ID:       id,
		broker:   newBroker(),
		name:     cc.spec.Name,
		tenant:   tenant,
		policy:   cc.spec.Policy,
		priority: cc.spec.Priority,
		state:    campaignRunning,
		created:  time.Now(),
		cells:    map[string]*campCell{},
	}
	for _, cell := range cc.cells {
		camp.order = append(camp.order, cell.id)
		camp.cells[cell.id] = &campCell{
			id:        cell.id,
			after:     append([]string(nil), cell.after...),
			spec:      cell.c.spec,
			state:     cellPending,
			remaining: len(cell.after),
		}
	}
	for _, cell := range cc.cells {
		for _, dep := range cell.after {
			camp.cells[dep].dependents = append(camp.cells[dep].dependents, cell.id)
		}
	}
	fmt.Fprintf(camp.broker, "campaign created: %d cells, policy %s\n", len(camp.order), camp.policy)
	return camp
}

// registerCampaign installs a campaign in the registry under the next
// id and returns it.
func (s *Server) registerCampaign(cc *compiledCampaign, tenant string) *campaign {
	s.campMu.Lock()
	s.nextCamp++
	id := fmt.Sprintf("campaign-%d", s.nextCamp)
	camp := buildCampaign(id, cc, tenant)
	s.campaigns[id] = camp
	s.campOrder = append(s.campOrder, id)
	s.campMu.Unlock()
	return camp
}

// campaignJSON renders the normalized campaign spec for its journal
// record.
func campaignJSON(cs CampaignSpec) json.RawMessage {
	b, err := json.Marshal(cs)
	if err != nil {
		return nil
	}
	return b
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	cs, err := decodeCampaignSpec(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cc, err := compileCampaign(cs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeRefusal(w, ErrDraining)
		return
	}
	tenant := s.sched.resolve(apiKeyFrom(r))
	if err := s.sched.admitCampaign(tenant, len(cc.cells)); err != nil {
		writeRefusal(w, err)
		return
	}
	camp := s.registerCampaign(cc, tenant)
	// Sync: losing this record would orphan the DAG — cell jobs would
	// requeue as plain jobs with nothing tracking their dependents.
	s.journalAppend(store.Record{Job: camp.ID, Campaign: camp.ID, State: campaignRunning, Spec: campaignJSON(cc.spec), Tenant: tenant, Priority: cc.spec.Priority}, true)
	s.launchReady(camp)
	writeJSON(w, http.StatusCreated, map[string]any{"campaign": s.campaignView(camp)})
}

// launchReady submits every launchable cell: pending, dependencies
// met, campaign not halted. Safe to call from any goroutine; the
// pending→queued transition under camp.mu makes launches single-shot.
func (s *Server) launchReady(camp *campaign) {
	for {
		camp.mu.Lock()
		if camp.state != campaignRunning {
			camp.mu.Unlock()
			return
		}
		var cell *campCell
		for _, id := range camp.order {
			cl := camp.cells[id]
			if cl.state == cellPending && cl.remaining == 0 && !camp.halted {
				cell = cl
				break
			}
		}
		if cell == nil {
			camp.mu.Unlock()
			return
		}
		cell.state = cellQueued // claimed; reverted on transient refusal
		spec := cell.spec
		tenant := camp.tenant
		cellID := cell.id
		camp.mu.Unlock()

		c, err := compile(spec)
		var key string
		if err == nil {
			key, err = c.cacheKey(s.cfg.Version)
		}
		if err != nil {
			// Unreachable for specs that compiled at admission; settle
			// rather than wedge the DAG if a future version disagrees.
			s.cellSettled(camp, cellID, false, fmt.Sprintf("unlaunchable cell spec: %v", err))
			continue
		}
		j, out, rerr := s.register(c, key, submission{tenant: tenant, priority: c.priority, campaign: camp.ID, cell: cellID})
		if rerr != nil {
			camp.mu.Lock()
			if cell.state == cellQueued {
				cell.state = cellPending
			}
			camp.mu.Unlock()
			if errors.Is(rerr, ErrQueueFull) {
				// Global pressure: the cells are already admitted, they
				// just wait for room.
				time.AfterFunc(campaignRetryDelay, func() { s.launchReady(camp) })
			}
			// Draining: the journaled campaign resumes on the next start.
			return
		}
		camp.mu.Lock()
		cell.key = key
		cell.jobID = j.ID
		cell.collapsed = out.Cached || out.Dedup
		camp.mu.Unlock()
		go s.watchCell(camp, cellID, j)
	}
}

// watchCell settles a cell when its job reaches a terminal state.
func (s *Server) watchCell(camp *campaign, cellID string, j *Job) {
	<-j.done
	v := j.snapshot()
	s.cellSettled(camp, cellID, v.State == StateDone, v.Error)
}

// cellSettled folds one cell's outcome into the campaign: done cells
// release their dependents, failed cells trigger the failure policy,
// and the last settled cell finalizes the campaign.
func (s *Server) cellSettled(camp *campaign, cellID string, ok bool, errMsg string) {
	camp.mu.Lock()
	cell := camp.cells[cellID]
	if cell == nil || cell.state == cellDone || cell.state == cellFailed || cell.state == cellSkipped {
		camp.mu.Unlock()
		return
	}
	newlyReady := false
	if ok {
		cell.state = cellDone
		camp.done++
		if cell.collapsed {
			camp.collapsed++
		}
		for _, d := range cell.dependents {
			dep := camp.cells[d]
			dep.remaining--
			if dep.remaining == 0 && dep.state == cellPending {
				newlyReady = true
			}
		}
	} else {
		cell.state = cellFailed
		cell.errMsg = errMsg
		camp.failed++
		s.skipUnreachableLocked(camp)
		if camp.policy == PolicyHalt {
			camp.halted = true
			s.skipPendingLocked(camp, fmt.Sprintf("halted: cell %q failed", cell.id))
		}
	}
	s.journalCellLocked(camp, cell)
	camp.rollupLocked(cell)
	terminal := camp.checkTerminalLocked()
	camp.mu.Unlock()
	if terminal {
		s.finalizeCampaign(camp)
		return
	}
	if newlyReady {
		s.launchReady(camp)
	}
}

// skipUnreachableLocked deterministically skips every pending cell
// with a failed or skipped dependency, to a fixpoint (transitive
// dependents of a failure can never launch). Spec order makes the skip
// sequence — and therefore the journal and the SSE rollup — identical
// on every run and every replay.
func (s *Server) skipUnreachableLocked(camp *campaign) {
	for changed := true; changed; {
		changed = false
		for _, id := range camp.order {
			cl := camp.cells[id]
			if cl.state != cellPending {
				continue
			}
			for _, dep := range cl.after {
				dst := camp.cells[dep].state
				if dst == cellFailed || dst == cellSkipped {
					cl.state = cellSkipped
					cl.errMsg = fmt.Sprintf("skipped: dependency %q did not complete", dep)
					camp.skipped++
					s.journalCellLocked(camp, cl)
					camp.rollupLocked(cl)
					changed = true
					break
				}
			}
		}
	}
}

// skipPendingLocked skips every still-pending cell (halt policy or
// cancellation). Already-launched cells are left to finish.
func (s *Server) skipPendingLocked(camp *campaign, reason string) {
	for _, id := range camp.order {
		cl := camp.cells[id]
		if cl.state != cellPending {
			continue
		}
		cl.state = cellSkipped
		cl.errMsg = reason
		camp.skipped++
		s.journalCellLocked(camp, cl)
		camp.rollupLocked(cl)
	}
}

// journalCellLocked records a cell's terminal state under the
// "<campaign>/<cell>" id namespace, so replay can rebuild DAG progress
// without re-deriving it from job records.
func (s *Server) journalCellLocked(camp *campaign, cell *campCell) {
	s.journalAppend(store.Record{
		Job:      camp.ID + "/" + cell.id,
		Campaign: camp.ID,
		Cell:     cell.id,
		Key:      cell.key,
		State:    cell.state,
		Error:    cell.errMsg,
		Cached:   cell.collapsed,
	}, false)
}

// rollupLocked emits one SSE progress line summarizing the campaign
// after a cell transition.
func (camp *campaign) rollupLocked(cell *campCell) {
	fmt.Fprintf(camp.broker, "cell %s %s (%d/%d done, %d failed, %d skipped, %d collapsed)\n",
		cell.id, cell.state, camp.done, len(camp.order), camp.failed, camp.skipped, camp.collapsed)
}

// checkTerminalLocked settles the campaign state once every cell is
// terminal. Reports whether the campaign just finished.
func (camp *campaign) checkTerminalLocked() bool {
	if camp.state != campaignRunning {
		return false
	}
	if camp.done+camp.failed+camp.skipped < len(camp.order) {
		return false
	}
	switch {
	case camp.cancelled:
		camp.state = campaignCancelled
	case camp.failed > 0 || camp.skipped > 0:
		camp.state = campaignFailed
	default:
		camp.state = campaignDone
	}
	camp.finished = time.Now()
	return true
}

// finalizeCampaign journals the terminal state (fsync'd — it ends the
// DAG's replay) and closes the rollup stream.
func (s *Server) finalizeCampaign(camp *campaign) {
	camp.mu.Lock()
	state := camp.state
	tenant := camp.tenant
	camp.mu.Unlock()
	s.journalAppend(store.Record{Job: camp.ID, Campaign: camp.ID, State: state, Tenant: tenant}, true)
	fmt.Fprintf(camp.broker, "campaign %s\n", state)
	camp.broker.close()
}

// CampaignView is the JSON shape of a campaign in API responses.
type CampaignView struct {
	ID       string     `json:"id"`
	Name     string     `json:"name,omitempty"`
	State    string     `json:"state"`
	Policy   string     `json:"policy"`
	Priority string     `json:"priority,omitempty"`
	Tenant   string     `json:"tenant,omitempty"`
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`

	Cells []CampaignCellView `json:"cells"`

	TotalCells     int `json:"total_cells"`
	DoneCells      int `json:"done_cells"`
	FailedCells    int `json:"failed_cells"`
	SkippedCells   int `json:"skipped_cells"`
	CollapsedCells int `json:"collapsed_cells"`
	// CacheCollapseRatio is collapsed over total: the fraction of the
	// DAG served without a fresh simulation run.
	CacheCollapseRatio float64 `json:"cache_collapse_ratio"`
}

// CampaignCellView is one cell in a campaign view.
type CampaignCellView struct {
	ID        string   `json:"id"`
	State     string   `json:"state"`
	After     []string `json:"after,omitempty"`
	Job       string   `json:"job,omitempty"`
	Key       string   `json:"key,omitempty"`
	Error     string   `json:"error,omitempty"`
	Collapsed bool     `json:"collapsed,omitempty"`
}

// campaignView snapshots a campaign, upgrading queued cells whose job
// is already running.
func (s *Server) campaignView(camp *campaign) CampaignView {
	camp.mu.Lock()
	defer camp.mu.Unlock()
	v := CampaignView{
		ID:             camp.ID,
		Name:           camp.name,
		State:          camp.state,
		Policy:         camp.policy,
		Priority:       camp.priority,
		Tenant:         camp.tenant,
		Created:        camp.created,
		TotalCells:     len(camp.order),
		DoneCells:      camp.done,
		FailedCells:    camp.failed,
		SkippedCells:   camp.skipped,
		CollapsedCells: camp.collapsed,
	}
	if !camp.finished.IsZero() {
		t := camp.finished
		v.Finished = &t
	}
	if v.TotalCells > 0 {
		v.CacheCollapseRatio = float64(camp.collapsed) / float64(v.TotalCells)
	}
	for _, id := range camp.order {
		cl := camp.cells[id]
		cv := CampaignCellView{
			ID:        cl.id,
			State:     cl.state,
			After:     cl.after,
			Job:       cl.jobID,
			Key:       cl.key,
			Error:     cl.errMsg,
			Collapsed: cl.collapsed,
		}
		if cl.state == cellQueued && cl.jobID != "" {
			s.mu.Lock()
			j := s.jobs[cl.jobID]
			s.mu.Unlock()
			if j != nil && j.stateNow() == StateRunning {
				cv.State = string(StateRunning)
			}
		}
		v.Cells = append(v.Cells, cv)
	}
	return v
}

func (s *Server) lookupCampaign(w http.ResponseWriter, r *http.Request) *campaign {
	s.campMu.Lock()
	camp, ok := s.campaigns[r.PathValue("id")]
	s.campMu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such campaign %q", r.PathValue("id")))
		return nil
	}
	return camp
}

func (s *Server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	s.campMu.Lock()
	ids := append([]string(nil), s.campOrder...)
	s.campMu.Unlock()
	views := make([]CampaignView, 0, len(ids))
	for _, id := range ids {
		s.campMu.Lock()
		camp := s.campaigns[id]
		s.campMu.Unlock()
		views = append(views, s.campaignView(camp))
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": views})
}

func (s *Server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	if camp := s.lookupCampaign(w, r); camp != nil {
		writeJSON(w, http.StatusOK, s.campaignView(camp))
	}
}

// handleCampaignEvents streams the campaign's rollup lines as SSE,
// ending with its terminal state.
func (s *Server) handleCampaignEvents(w http.ResponseWriter, r *http.Request) {
	camp := s.lookupCampaign(w, r)
	if camp == nil {
		return
	}
	camp.broker.serveEvents(w, r, func() string {
		camp.mu.Lock()
		defer camp.mu.Unlock()
		return camp.state
	})
}

// handleCampaignCancel stops a campaign: pending cells skip, launched
// cells' jobs are aborted (their watchers settle them), and the
// campaign finalizes as cancelled once everything lands.
func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	camp := s.lookupCampaign(w, r)
	if camp == nil {
		return
	}
	camp.mu.Lock()
	if camp.state != campaignRunning {
		camp.mu.Unlock()
		writeJSON(w, http.StatusOK, s.campaignView(camp))
		return
	}
	camp.cancelled = true
	camp.halted = true
	s.skipPendingLocked(camp, "cancelled by client")
	var jobs []*Job
	for _, id := range camp.order {
		cl := camp.cells[id]
		if cl.state == cellQueued && cl.jobID != "" {
			s.mu.Lock()
			j := s.jobs[cl.jobID]
			s.mu.Unlock()
			if j != nil {
				jobs = append(jobs, j)
			}
		}
	}
	terminal := camp.checkTerminalLocked()
	camp.mu.Unlock()
	for _, j := range jobs {
		s.cancelJob(j, "campaign cancelled")
	}
	if terminal {
		s.finalizeCampaign(camp)
	}
	writeJSON(w, http.StatusOK, s.campaignView(camp))
}

// campaignStat feeds the /metrics exposition.
type campaignStat struct {
	ID        string
	State     string
	Total     int
	Done      int
	Failed    int
	Skipped   int
	Collapsed int
}

// campaignStats snapshots every campaign in creation order.
func (s *Server) campaignStats() []campaignStat {
	s.campMu.Lock()
	ids := append([]string(nil), s.campOrder...)
	camps := make([]*campaign, 0, len(ids))
	for _, id := range ids {
		camps = append(camps, s.campaigns[id])
	}
	s.campMu.Unlock()
	out := make([]campaignStat, 0, len(camps))
	for _, camp := range camps {
		camp.mu.Lock()
		out = append(out, campaignStat{
			ID:        camp.ID,
			State:     camp.state,
			Total:     len(camp.order),
			Done:      camp.done,
			Failed:    camp.failed,
			Skipped:   camp.skipped,
			Collapsed: camp.collapsed,
		})
		camp.mu.Unlock()
	}
	return out
}

// --- journal rebuild -------------------------------------------------

// noteCampaignID keeps nextCamp ahead of every journaled campaign id.
func (s *Server) noteCampaignID(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "campaign-%d", &n); err == nil && n > s.nextCamp {
		s.nextCamp = n
	}
}

// rebuildCampaigns restores campaigns from their folded journal
// records. Runs inside Open, after the job pass (so requeued cell jobs
// are in the in-flight index) and before workers start.
func (s *Server) rebuildCampaigns(campRecs, cellRecs []store.Record) {
	cellsByCamp := map[string][]store.Record{}
	for _, r := range cellRecs {
		cellsByCamp[r.Campaign] = append(cellsByCamp[r.Campaign], r)
	}
	for _, r := range campRecs {
		s.noteCampaignID(r.Job)
		s.rebuildCampaign(r, cellsByCamp[r.Job])
	}
}

// rebuildCampaign restores one campaign: recompile the journaled spec,
// apply recorded cell outcomes, reattach live cells to requeued jobs
// or the result cache, re-derive skips, and resume launching. The
// campaign is registered only once fully built, so no locking is
// needed while assembling it.
func (s *Server) rebuildCampaign(r store.Record, cellRecs []store.Record) {
	install := func(camp *campaign) {
		s.campMu.Lock()
		s.campaigns[camp.ID] = camp
		s.campOrder = append(s.campOrder, camp.ID)
		s.campMu.Unlock()
	}

	var cs CampaignSpec
	var cc *compiledCampaign
	err := json.Unmarshal(r.Spec, &cs)
	if err == nil {
		cc, err = compileCampaign(cs)
	}
	if err != nil {
		// Unreplayable DAG: restore a terminal stub so the id and the
		// failure stay visible instead of silently vanishing.
		camp := &campaign{ID: r.Job, broker: newBroker(), tenant: r.Tenant, policy: PolicyContinue,
			state: campaignFailed, created: time.Now(), cells: map[string]*campCell{}}
		fmt.Fprintf(camp.broker, "unreplayable campaign spec: %v\n", err)
		camp.broker.close()
		install(camp)
		return
	}

	camp := buildCampaign(r.Job, cc, r.Tenant)

	// Recorded cell outcomes first.
	for _, cr := range cellRecs {
		cell := camp.cells[cr.Cell]
		if cell == nil || cell.state != cellPending {
			continue
		}
		switch cr.State {
		case cellDone:
			cell.state = cellDone
			cell.key = cr.Key
			cell.collapsed = cr.Cached
			camp.done++
			if cr.Cached {
				camp.collapsed++
			}
			for _, d := range cell.dependents {
				camp.cells[d].remaining--
			}
		case cellFailed:
			cell.state = cellFailed
			cell.errMsg = cr.Error
			camp.failed++
		case cellSkipped:
			cell.state = cellSkipped
			cell.errMsg = cr.Error
			camp.skipped++
		}
	}

	if r.State != campaignRunning {
		// Terminal campaign: view-only restore.
		camp.state = r.State
		camp.cancelled = r.State == campaignCancelled
		camp.finished = camp.created
		camp.broker.close()
		install(camp)
		return
	}

	// Re-derive policy consequences (skip records may predate a crash).
	if camp.policy == PolicyHalt && camp.failed > 0 {
		camp.halted = true
	}
	s.skipUnreachableLocked(camp)
	if camp.halted {
		s.skipPendingLocked(camp, "halted: a cell failed before restart")
	}

	// Reattach in-flight cells: a requeued job (by cache key) keeps the
	// cell queued; a cached result settles it as collapsed; otherwise
	// the cell waits for launchReady.
	type watch struct {
		cellID string
		j      *Job
	}
	var watches []watch
	for _, id := range camp.order {
		cell := camp.cells[id]
		if cell.state != cellPending {
			continue
		}
		c, err := compile(cell.spec)
		if err != nil {
			continue // launchReady settles it as unlaunchable
		}
		key, err := c.cacheKey(s.cfg.Version)
		if err != nil {
			continue
		}
		if j, ok := s.inflight[key]; ok {
			cell.state = cellQueued
			cell.key = key
			cell.jobID = j.ID
			watches = append(watches, watch{cellID: id, j: j})
			continue
		}
		if cell.remaining == 0 && !camp.halted {
			if _, ok := s.cacheGet(key); ok {
				cell.state = cellDone
				cell.key = key
				cell.collapsed = true
				camp.done++
				camp.collapsed++
				for _, d := range cell.dependents {
					camp.cells[d].remaining--
				}
				s.journalCellLocked(camp, cell)
				camp.rollupLocked(cell)
			}
		}
	}
	terminal := camp.checkTerminalLocked()
	install(camp)
	for _, wt := range watches {
		go s.watchCell(camp, wt.cellID, wt.j)
	}
	if terminal {
		s.finalizeCampaign(camp)
		return
	}
	s.launchReady(camp)
}
