package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/omp"
)

// After the open loop drains, the batch tenant submits campaign DAGs one
// after another: each is three kernels × the four Figure 2
// configurations (12 distinct cells) plus four duplicate cells that
// collapse onto their originals. The campaigns run at 5, 6 and 7 CMPs,
// node counts the open loop never uses, so every distinct cell runs.
// Their shape is the same for every seed; the seed orders the cells,
// which is the server's launch tie-break, and picks the duplicates.
var (
	campaignKernels    = []string{"BT", "LU", "MG"}
	campaignConfigs    = []string{"single", "double", "slip-G0", "slip-L1"}
	campaignNodeCounts = []int{5, 6, 7}
)

const campaignDups = 4

func campaignSpec(kernel, config string, nodes int) runSpec {
	s := runSpec{Kind: "run", Kernel: kernel, Mode: config, Sched: "static", Nodes: nodes, Scale: "test"}
	switch config {
	case "slip-G0":
		s.Mode, s.Sync, s.Tokens = "slipstream", "GLOBAL_SYNC", 0
	case "slip-L1":
		s.Mode, s.Sync, s.Tokens = "slipstream", "LOCAL_SYNC", 1
	}
	return s
}

type campaignCell struct {
	ID    string   `json:"id"`
	After []string `json:"after,omitempty"`
	Spec  runSpec  `json:"spec"`
}

type campaignBody struct {
	Name     string         `json:"name"`
	Priority string         `json:"priority"`
	Cells    []campaignCell `json:"cells"`
}

func cellID(kernel, config string) string { return kernel + "." + config }

// campaignPlan builds one DAG: each kernel's baseline (single) runs
// first and its other three configurations after it; each duplicate
// runs after the cell it repeats, so it is answered from the cache.
func campaignPlan(seed int64, nodes int) campaignBody {
	rng := rand.New(rand.NewSource(seed*31 + int64(nodes)))
	var cells []campaignCell
	for _, k := range campaignKernels {
		for _, cfg := range campaignConfigs {
			c := campaignCell{ID: cellID(k, cfg), Spec: campaignSpec(k, cfg, nodes)}
			if cfg != "single" {
				c.After = []string{cellID(k, "single")}
			}
			cells = append(cells, c)
		}
	}
	for i, j := range rng.Perm(len(cells))[:campaignDups] {
		orig := cells[j]
		cells = append(cells, campaignCell{ID: fmt.Sprintf("dup%d.%s", i, orig.ID), After: []string{orig.ID}, Spec: orig.Spec})
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return campaignBody{Name: fmt.Sprintf("perfbench-%d", nodes), Priority: "batch", Cells: cells}
}

type campaignView struct {
	ID                 string     `json:"id"`
	State              string     `json:"state"`
	Finished           *time.Time `json:"finished"`
	TotalCells         int        `json:"total_cells"`
	DoneCells          int        `json:"done_cells"`
	CacheCollapseRatio float64    `json:"cache_collapse_ratio"`
	Cells              []struct {
		ID  string `json:"id"`
		Job string `json:"job"`
		Key string `json:"key"`
	} `json:"cells"`
}

// campaignResult aggregates the campaigns of one run.
type campaignResult struct {
	seconds  float64 // Σ submit → terminal state
	gainPct  float64
	collapse float64 // mean collapse ratio
	cells    int
}

var cyclesRE = regexp.MustCompile(`(?m)^cycles:\s+(\d+)`)

// runCampaigns submits every campaign in turn, checks every cell's
// bytes, and fingerprints the distinct cells' results in canonical
// order. The recorded digest was taken on a single node and on the
// fleet alike, so a spec must give the fleet the bytes one node gives.
func runCampaigns(l *loadRun, seed int64) (campaignResult, error) {
	var r campaignResult
	h := sha256.New()
	var gains []float64
	for _, nodes := range campaignNodeCounts {
		secs, collapse, results, err := runCampaign(l, campaignPlan(seed, nodes))
		if err != nil {
			return r, err
		}
		r.seconds += secs
		r.collapse += collapse / float64(len(campaignNodeCounts))
		r.cells += len(campaignKernels)*len(campaignConfigs) + campaignDups
		wall := map[string]uint64{}
		for _, k := range campaignKernels {
			for _, cfg := range campaignConfigs {
				b := results[cellID(k, cfg)]
				h.Write(b)
				if m := cyclesRE.FindSubmatch(b); m != nil {
					wall[cellID(k, cfg)], _ = strconv.ParseUint(string(m[1]), 10, 64)
				}
			}
			base := minNonZero(wall[cellID(k, "single")], wall[cellID(k, "double")])
			slip := minNonZero(wall[cellID(k, "slip-G0")], wall[cellID(k, "slip-L1")])
			if base > 0 && slip > 0 {
				gains = append(gains, 100*(float64(base)/float64(slip)-1))
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != campaignRecorded.output {
		l.fail("campaign result digest %s, recorded %s", got, campaignRecorded.output)
	}
	if len(gains) > 0 {
		r.gainPct = sum(gains) / float64(len(gains))
	}
	return r, nil
}

// runCampaign submits one campaign as the batch tenant, waits for its
// terminal state and returns its duration, collapse ratio and the
// result bytes of its distinct cells by cell ID.
func runCampaign(l *loadRun, body campaignBody) (float64, float64, map[string][]byte, error) {
	var created struct {
		Campaign campaignView `json:"campaign"`
	}
	sp := l.tr.begin("http.campaign", body.Name, 0)
	submitted := time.Now()
	code, err := post(l.cl, l.base+"/campaigns", batchKey, body, &created)
	if err != nil || code != http.StatusCreated {
		return 0, 0, nil, fmt.Errorf("submit campaign: status %d, %v", code, err)
	}
	var v campaignView
	deadline := time.Now().Add(drainTimeout)
	for {
		if err := getJSON(l.cl, l.base+"/campaigns/"+created.Campaign.ID, &v); err != nil {
			return 0, 0, nil, err
		}
		if v.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, nil, fmt.Errorf("campaign %s still running after %s", v.ID, drainTimeout)
		}
		time.Sleep(pollEvery)
	}
	l.tr.end(sp)
	if v.Finished == nil {
		return 0, 0, nil, fmt.Errorf("campaign %s: %s without a finish time", v.ID, v.State)
	}
	if v.State != "done" || v.DoneCells != v.TotalCells {
		l.fail("campaign %s ended %s with %d of %d cells done", v.ID, v.State, v.DoneCells, v.TotalCells)
	}
	results := map[string][]byte{}
	for _, c := range v.Cells {
		b, err := l.result(c.Job, body.Name+"/"+c.ID)
		if err != nil {
			l.fail("campaign cell %s: %v", c.ID, err)
			continue
		}
		l.checkBytes(c.Key, b, "campaign cell "+c.ID)
		if !strings.HasPrefix(c.ID, "dup") {
			results[c.ID] = b
		}
	}
	return v.Finished.Sub(submitted).Seconds(), v.CacheCollapseRatio, results, nil
}

func minNonZero(a, b uint64) uint64 {
	switch {
	case a == 0:
		return b
	case b == 0 || a < b:
		return a
	}
	return b
}

// campaignCells are the campaigns' distinct cells as simulator cells,
// in fingerprint order, for the traced run's in-process replay.
func campaignCells() []paperCell {
	var out []paperCell
	for _, nodes := range campaignNodeCounts {
		p := machine.DefaultParams()
		p.Nodes = nodes
		for _, name := range campaignKernels {
			k, _ := npb.ByName(name)
			for _, cfg := range campaignConfigs {
				c := paperCell{kernel: k, config: cfg, cfg: omp.Config{Machine: p, Mode: core.ModeSingle}}
				switch cfg {
				case "double":
					c.cfg.Mode = core.ModeDouble
				case "slip-G0":
					c.cfg.Mode, c.cfg.Slipstream = core.ModeSlipstream, core.G0
				case "slip-L1":
					c.cfg.Mode, c.cfg.Slipstream = core.ModeSlipstream, core.L1
				}
				out = append(out, c)
			}
		}
	}
	return out
}
