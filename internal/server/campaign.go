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
// and cache key of every cell spec. All user errors surface as 400s.
// The campaign it returns has no id or tenant yet and is not
// registered: nothing else can see it, so no locking here.
func compileCampaign(cs CampaignSpec) (*campaign, error) {
	if len(cs.Cells) == 0 {
		return nil, fmt.Errorf("campaign requires at least one cell")
	}
	if len(cs.Cells) > maxCampaignCells {
		return nil, fmt.Errorf("campaign has %d cells, maximum %d", len(cs.Cells), maxCampaignCells)
	}
	if len(cs.Name) > maxCampaignName {
		return nil, fmt.Errorf("campaign name longer than %d bytes", maxCampaignName)
	}
	camp := &campaign{
		broker:  newBroker(),
		spec:    cs,
		state:   campaignRunning,
		created: time.Now(),
		cells:   map[string]*campCell{},
	}

	switch strings.ToLower(cs.Policy) {
	case "":
		camp.spec.Policy = PolicyContinue
	case PolicyContinue, PolicyHalt:
		camp.spec.Policy = strings.ToLower(cs.Policy)
	default:
		return nil, fmt.Errorf("unknown policy %q (valid: continue, halt)", cs.Policy)
	}
	switch strings.ToLower(cs.Priority) {
	case "":
		camp.spec.Priority = ""
	case PriorityNameInteractive, PriorityNameBatch:
		camp.spec.Priority = strings.ToLower(cs.Priority)
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

	for i, cell := range cs.Cells {
		spec := cell.Spec
		if camp.spec.Priority != "" {
			spec.Priority = camp.spec.Priority
		}
		c, err := compile(spec)
		var key string
		if err == nil {
			key, err = c.cacheKey()
		}
		if err != nil {
			return nil, fmt.Errorf("cell %q: %v", cell.ID, err)
		}
		camp.spec.Cells[i].Spec = c.spec() // journal the normalized form
		camp.order = append(camp.order, cell.ID)
		camp.cells[cell.ID] = &campCell{id: cell.ID, after: cell.After, c: c, key: key, state: cellPending}
	}
	fmt.Fprintf(camp.broker, "campaign created: %d cells, policy %s\n", len(camp.order), camp.spec.Policy)
	return camp, nil
}

// campaign is one live (or restored) campaign. ID, spec, tenant, order
// and the cells map are fixed before the campaign is installed; the
// campaign state and every cell's fields are guarded by mu. Lock order:
// camp.mu may be held while taking s.mu, a job's mutex or the
// scheduler's mutex, never the reverse.
type campaign struct {
	ID     string
	broker *broker      // progress rollups for GET /campaigns/{id}/events
	spec   CampaignSpec // normalized (canonical policy/priority, normalized cell specs)
	tenant string
	order  []string
	cells  map[string]*campCell

	mu        sync.Mutex
	state     string
	halted    bool // no further pending cells launch
	cancelled bool
	created   time.Time
	finished  time.Time
}

// campCell is one DAG node. Its state is the campaign's only record of
// progress: counts and readiness are derived from the cells.
type campCell struct {
	id        string
	after     []string
	c         *compiledSpec
	key       string // cache key, fixed at admission
	state     string
	job       *Job // the job it launched or collapsed onto
	errMsg    string
	collapsed bool // answered by cache or single-flight dedup, not a fresh run
}

// campCounts is a campaign's rollup of settled cells.
type campCounts struct {
	done, failed, skipped, collapsed int
}

// countsLocked derives the rollup from the cell states.
func (camp *campaign) countsLocked() campCounts {
	var n campCounts
	for _, cl := range camp.cells {
		switch cl.state {
		case cellDone:
			n.done++
			if cl.collapsed {
				n.collapsed++
			}
		case cellFailed:
			n.failed++
		case cellSkipped:
			n.skipped++
		}
	}
	return n
}

// readyLocked reports whether a cell may launch: it is pending, the
// campaign is not halted, and every cell it runs after is done.
func (camp *campaign) readyLocked(cl *campCell) bool {
	if cl.state != cellPending || camp.halted {
		return false
	}
	for _, dep := range cl.after {
		if camp.cells[dep].state != cellDone {
			return false
		}
	}
	return true
}

// installCampaign makes a fully built campaign visible in the registry.
// A fresh campaign (no id yet) takes the next one.
func (s *Server) installCampaign(camp *campaign) {
	s.campMu.Lock()
	defer s.campMu.Unlock()
	if camp.ID == "" {
		s.nextCamp++
		camp.ID = fmt.Sprintf("campaign-%d", s.nextCamp)
	}
	s.campaigns[camp.ID] = camp
	s.campOrder = append(s.campOrder, camp.ID)
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
	cs, err := decodeCampaignSpec(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		bodyError(w, err)
		return
	}
	camp, err := compileCampaign(cs)
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
	camp.tenant = s.sched.resolve(apiKeyFrom(r))
	if err := s.sched.admitCampaign(camp.tenant, len(camp.order)); err != nil {
		writeRefusal(w, err)
		return
	}
	s.installCampaign(camp)
	// Sync: losing this record would orphan the DAG — cell jobs would
	// requeue as plain jobs with nothing tracking their dependents.
	s.journalAppend(store.Record{Job: camp.ID, Campaign: camp.ID, State: campaignRunning, Spec: campaignJSON(camp.spec), Tenant: camp.tenant, Priority: camp.spec.Priority}, true)
	s.launchReady(camp)
	writeJSON(w, http.StatusCreated, map[string]any{"campaign": camp.view()})
}

// launchReady submits every launchable cell (see readyLocked). Safe to
// call from any goroutine. Each cell registers while camp.mu is held, so
// a cancel or halt sees every cell either pending or launched.
func (s *Server) launchReady(camp *campaign) {
	camp.mu.Lock()
	defer camp.mu.Unlock()
	if camp.state != campaignRunning {
		return
	}
	for _, id := range camp.order {
		cell := camp.cells[id]
		if !camp.readyLocked(cell) {
			continue
		}
		j, out, err := s.register(cell.c, cell.key, submission{tenant: camp.tenant, priority: cell.c.priority, campaign: camp.ID, cell: cell.id})
		if err != nil {
			if errors.Is(err, ErrQueueFull) {
				// Global pressure: the cells are already admitted, they
				// just wait for room.
				time.AfterFunc(campaignRetryDelay, func() { s.launchReady(camp) })
			}
			// Draining: the journaled campaign resumes on the next start.
			return
		}
		cell.state = cellQueued
		cell.job = j
		cell.collapsed = out.Cached || out.Dedup
		go s.watchCell(camp, cell, j)
	}
}

// watchCell settles a cell when its job reaches a terminal state.
func (s *Server) watchCell(camp *campaign, cell *campCell, j *Job) {
	<-j.done
	v := j.snapshot()
	s.cellSettled(camp, cell, v.State == StateDone, v.Error)
}

// cellSettled folds one cell's job outcome into the campaign: a failed
// cell triggers the failure policy, the last settled cell finalizes the
// campaign, and otherwise whatever became ready launches.
func (s *Server) cellSettled(camp *campaign, cell *campCell, ok bool, errMsg string) {
	camp.mu.Lock()
	if cell.state != cellQueued {
		camp.mu.Unlock()
		return // already settled: a cancel detached it from the job
	}
	if ok {
		s.settleLocked(camp, cell, cellDone, "")
	} else {
		// The skip passes see the failure first, so the failed cell's own
		// line follows the skip lines it causes.
		cell.state = cellFailed
		s.skipUnreachableLocked(camp)
		if camp.spec.Policy == PolicyHalt {
			camp.halted = true
			s.skipPendingLocked(camp, fmt.Sprintf("halted: cell %q failed", cell.id))
		}
		s.settleLocked(camp, cell, cellFailed, errMsg)
	}
	terminal := camp.checkTerminalLocked()
	camp.mu.Unlock()
	if terminal {
		s.finalizeCampaign(camp)
		return
	}
	s.launchReady(camp)
}

// settleLocked moves a cell to a terminal state, journals it under the
// "<campaign>/<cell>" id namespace (so replay can rebuild DAG progress
// without re-deriving it from job records) and emits one SSE rollup
// line summarizing the campaign.
func (s *Server) settleLocked(camp *campaign, cell *campCell, state, errMsg string) {
	cell.state = state
	cell.errMsg = errMsg
	s.journalAppend(store.Record{
		Job:      camp.ID + "/" + cell.id,
		Campaign: camp.ID,
		Cell:     cell.id,
		Key:      cell.key,
		State:    state,
		Error:    errMsg,
		Cached:   cell.collapsed,
	}, false)
	n := camp.countsLocked()
	fmt.Fprintf(camp.broker, "cell %s %s (%d/%d done, %d failed, %d skipped, %d collapsed)\n",
		cell.id, state, n.done, len(camp.order), n.failed, n.skipped, n.collapsed)
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
				if st := camp.cells[dep].state; st == cellFailed || st == cellSkipped {
					s.settleLocked(camp, cl, cellSkipped, fmt.Sprintf("skipped: dependency %q did not complete", dep))
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
		if cl := camp.cells[id]; cl.state == cellPending {
			s.settleLocked(camp, cl, cellSkipped, reason)
		}
	}
}

// checkTerminalLocked settles the campaign state once every cell is
// terminal. Reports whether the campaign just finished.
func (camp *campaign) checkTerminalLocked() bool {
	if camp.state != campaignRunning {
		return false
	}
	n := camp.countsLocked()
	if n.done+n.failed+n.skipped < len(camp.order) {
		return false
	}
	switch {
	case camp.cancelled:
		camp.state = campaignCancelled
	case n.failed > 0 || n.skipped > 0:
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
	camp.mu.Unlock()
	s.journalAppend(store.Record{Job: camp.ID, Campaign: camp.ID, State: state, Tenant: camp.tenant}, true)
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

// view snapshots a campaign, upgrading queued cells whose job is
// already running.
func (camp *campaign) view() CampaignView {
	camp.mu.Lock()
	defer camp.mu.Unlock()
	n := camp.countsLocked()
	v := CampaignView{
		ID:             camp.ID,
		Name:           camp.spec.Name,
		State:          camp.state,
		Policy:         camp.spec.Policy,
		Priority:       camp.spec.Priority,
		Tenant:         camp.tenant,
		Created:        camp.created,
		TotalCells:     len(camp.order),
		DoneCells:      n.done,
		FailedCells:    n.failed,
		SkippedCells:   n.skipped,
		CollapsedCells: n.collapsed,
	}
	if !camp.finished.IsZero() {
		t := camp.finished
		v.Finished = &t
	}
	if v.TotalCells > 0 {
		v.CacheCollapseRatio = float64(n.collapsed) / float64(v.TotalCells)
	}
	for _, id := range camp.order {
		cl := camp.cells[id]
		cv := CampaignCellView{
			ID:        cl.id,
			State:     cl.state,
			After:     cl.after,
			Key:       cl.key,
			Error:     cl.errMsg,
			Collapsed: cl.collapsed,
		}
		if cl.job != nil {
			cv.Job = cl.job.ID
			if cl.state == cellQueued && cl.job.stateNow() == StateRunning {
				cv.State = string(StateRunning)
			}
		}
		v.Cells = append(v.Cells, cv)
	}
	return v
}

// campaignViews snapshots every campaign in creation order, for GET
// /campaigns and the /metrics campaign series.
func (s *Server) campaignViews() []CampaignView {
	s.campMu.Lock()
	camps := make([]*campaign, 0, len(s.campOrder))
	for _, id := range s.campOrder {
		camps = append(camps, s.campaigns[id])
	}
	s.campMu.Unlock()
	views := make([]CampaignView, 0, len(camps))
	for _, camp := range camps {
		views = append(views, camp.view())
	}
	return views
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
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": s.campaignViews()})
}

func (s *Server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	if camp := s.lookupCampaign(w, r); camp != nil {
		writeJSON(w, http.StatusOK, camp.view())
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

// handleCampaignCancel stops a campaign: pending cells skip, the jobs
// the campaign launched are aborted (their watchers settle those
// cells), cells collapsed onto another submitter's job detach as
// skipped while that job runs on, and the campaign finalizes as
// cancelled once everything lands.
func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	camp := s.lookupCampaign(w, r)
	if camp == nil {
		return
	}
	camp.mu.Lock()
	var launched []*Job
	if camp.state == campaignRunning {
		camp.cancelled = true
		camp.halted = true
		s.skipPendingLocked(camp, "cancelled by client")
		for _, id := range camp.order {
			cl := camp.cells[id]
			if cl.state != cellQueued {
				continue
			}
			if cl.job.campaign == camp.ID {
				launched = append(launched, cl.job)
			} else {
				s.settleLocked(camp, cl, cellSkipped, "cancelled by client")
			}
		}
	}
	terminal := camp.checkTerminalLocked()
	camp.mu.Unlock()
	for _, j := range launched {
		s.cancelJob(j, "campaign cancelled")
	}
	if terminal {
		s.finalizeCampaign(camp)
	}
	writeJSON(w, http.StatusOK, camp.view())
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
// campaign is installed only once fully built, so no locking is needed
// while assembling it.
func (s *Server) rebuildCampaign(r store.Record, cellRecs []store.Record) {
	var cs CampaignSpec
	var camp *campaign
	err := json.Unmarshal(r.Spec, &cs)
	if err == nil {
		camp, err = compileCampaign(cs)
	}
	if err != nil {
		// Unreplayable DAG: restore a terminal stub so the id and the
		// failure stay visible instead of silently vanishing.
		camp := &campaign{ID: r.Job, broker: newBroker(), spec: CampaignSpec{Policy: PolicyContinue}, tenant: r.Tenant,
			state: campaignFailed, created: time.Now(), cells: map[string]*campCell{}}
		fmt.Fprintf(camp.broker, "unreplayable campaign spec: %v\n", err)
		camp.broker.close()
		s.installCampaign(camp)
		return
	}
	camp.ID, camp.tenant = r.Job, r.Tenant

	// Recorded cell outcomes first: fields only, no new journal records
	// or rollup lines.
	for _, cr := range cellRecs {
		cell := camp.cells[cr.Cell]
		if cell == nil || cell.state != cellPending {
			continue
		}
		switch cr.State {
		case cellDone:
			cell.state, cell.collapsed = cellDone, cr.Cached
		case cellFailed, cellSkipped:
			cell.state, cell.errMsg = cr.State, cr.Error
		}
	}

	if r.State != campaignRunning {
		// Terminal campaign: view-only restore.
		camp.state = r.State
		camp.cancelled = r.State == campaignCancelled
		camp.finished = camp.created
		camp.broker.close()
		s.installCampaign(camp)
		return
	}

	// Re-derive policy consequences (skip records may predate a crash).
	if camp.spec.Policy == PolicyHalt && camp.countsLocked().failed > 0 {
		camp.halted = true
	}
	s.skipUnreachableLocked(camp)
	if camp.halted {
		s.skipPendingLocked(camp, "halted: a cell failed before restart")
	}

	// Reattach in-flight cells: a requeued job with the cell's key keeps
	// the cell queued; a cached result settles a ready cell as collapsed;
	// otherwise the cell waits for launchReady.
	var watches []*campCell
	for _, id := range camp.order {
		cell := camp.cells[id]
		if cell.state != cellPending {
			continue
		}
		if j, ok := s.inflight[cell.key]; ok {
			cell.state = cellQueued
			cell.job = j
			watches = append(watches, cell)
			continue
		}
		if camp.readyLocked(cell) {
			if _, ok := s.cacheGet(cell.key); ok {
				cell.collapsed = true
				s.settleLocked(camp, cell, cellDone, "")
			}
		}
	}
	terminal := camp.checkTerminalLocked()
	s.installCampaign(camp)
	for _, cell := range watches {
		go s.watchCell(camp, cell, cell.job)
	}
	if terminal {
		s.finalizeCampaign(camp)
		return
	}
	s.launchReady(camp)
}
