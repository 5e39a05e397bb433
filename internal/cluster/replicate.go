package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// peerLink is one peer coordinator: the kick channel that wakes its
// replication loop, and the reachability that loop records. Stats reads
// it concurrently.
type peerLink struct {
	url  string
	kick chan struct{} // capacity 1: a pending kick absorbs later ones

	mu        sync.Mutex
	attempted bool
	ok        bool
	lastOK    time.Time
}

func (p *peerLink) status(now time.Time) server.PeerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := server.PeerStatus{
		URL:       p.url,
		Reachable: p.attempted && p.ok,
		LagMs:     -1,
	}
	if !p.lastOK.IsZero() {
		s.LagMs = now.Sub(p.lastOK).Milliseconds()
	}
	return s
}

// observe records one push outcome and logs reachability transitions.
func (p *peerLink) observe(now time.Time, err error, logf func(string, ...any)) {
	p.mu.Lock()
	wasOK, wasAttempted := p.ok, p.attempted
	p.attempted = true
	p.ok = err == nil
	if err == nil {
		p.lastOK = now
	}
	p.mu.Unlock()
	switch {
	case err == nil && !wasOK:
		logf("cluster: peer %s reachable", p.url)
	case err != nil && (wasOK || !wasAttempted):
		logf("cluster: peer %s unreachable: %v", p.url, err)
	}
}

// replicateLoop pushes the full claim table to one peer on each sync
// tick and on every table mutation (the peer's kick channel). Every
// peer has its own loop, so a peer that hangs or refuses delays only
// its own pushes. Full snapshots keep the protocol trivially
// idempotent: Merge's precedence rules make reapplying old state a
// no-op, so there is no delta bookkeeping to corrupt.
func (co *Coordinator) replicateLoop(p *peerLink) {
	defer co.wg.Done()
	t := time.NewTicker(co.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-co.ctx.Done():
			return
		case <-t.C:
		case <-p.kick:
		}
		bodies, err := replicateBodies(co.table.Snapshot())
		if err != nil {
			co.cfg.Logf("cluster: marshal replication batch: %v", err)
			continue
		}
		for _, body := range bodies {
			if err = co.postReplicate(p.url, body); err != nil {
				break
			}
		}
		if co.ctx.Err() != nil {
			return // closed mid-push; the peer did nothing wrong
		}
		p.observe(co.cfg.Now(), err, co.cfg.Logf)
	}
}

// replicateBodies splits a snapshot into consecutive ReplicateBatch
// bodies of at most maxBatchRecs records and maxWireLen bytes, so each
// post crosses within its 2×SyncInterval timeout; a record larger than
// maxWireLen travels alone, within the receiver's maxResultLen bound.
// Merge applies records one at a time, so a split snapshot converges
// exactly as a whole one does. An empty snapshot is still one (empty)
// body: the push doubles as the peer's reachability probe.
func replicateBodies(recs []ClaimRecord) ([][]byte, error) {
	const head, tail = `{"records":[`, `]}`
	var bodies [][]byte
	body, n := []byte(head), 0
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		if n > 0 && (n == maxBatchRecs || len(body)+1+len(b)+len(tail) > maxWireLen) {
			bodies = append(bodies, append(body, tail...))
			body, n = []byte(head), 0
		}
		if n > 0 {
			body = append(body, ',')
		}
		body = append(body, b...)
		n++
	}
	return append(bodies, append(body, tail...)), nil
}

func (co *Coordinator) postReplicate(url string, body []byte) error {
	ctx, cancel := context.WithTimeout(co.ctx, 2*co.cfg.SyncInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/cluster/claims/replicate", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := co.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer answered HTTP %d", resp.StatusCode)
	}
	return nil
}
