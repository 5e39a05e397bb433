package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestHungPeerDoesNotDelayLivePeer pins the per-peer replication loops:
// a peer that accepts a push and never answers must not hold up the push
// to a live peer. A single loop posting to the peers in turn would make
// the live peer wait out the hung peer's 2×SyncInterval timeout first.
func TestHungPeerDoesNotDelayLivePeer(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Reading the body to EOF lets the server notice the client
		// hanging up, which is what ends the request context.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer hung.Close()
	live := NewCoordinator(fastCfg(nil))
	defer live.Close()
	liveSrv := httptest.NewServer(live.Handler())
	defer liveSrv.Close()

	co := NewCoordinator(Config{SyncInterval: time.Second, Peers: []string{hung.URL, liveSrv.URL}})
	defer co.Close()

	co.table.Enqueue(testKey, "run/CG", "default", 0, json.RawMessage(runSpecBody))
	waitFor(t, 500*time.Millisecond, func() bool {
		for _, v := range live.ClaimViews() {
			if v.Key == testKey && v.State == ClaimPending {
				return true
			}
		}
		return false
	}, "live peer did not hold the claim within 500ms of the enqueue")

	// Each loop records its own peer's reachability: the hung peer's
	// push fails once it times out, and the live peer stays reachable.
	hungLink := co.peers[0]
	waitFor(t, 5*time.Second, func() bool {
		hungLink.mu.Lock()
		defer hungLink.mu.Unlock()
		return hungLink.attempted && !hungLink.ok
	}, "push to the hung peer never timed out")
	if s := co.Stats(); s.Peers[0].Reachable || !s.Peers[1].Reachable {
		t.Fatalf("peer statuses %+v, want only the live peer reachable", s.Peers)
	}
}
