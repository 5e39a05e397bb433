package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestReplicationSplitsLargeSnapshots: a claim table past one batch's
// bounds (record count, then body bytes) still replicates every key to
// the peer, and the pusher records the peer reachable.
func TestReplicationSplitsLargeSnapshots(t *testing.T) {
	cases := []struct {
		name    string
		entries int
		result  int // bytes per done result; 0 means pending claims
	}{
		{"records", maxBatchRecs + 1, 0},
		{"bytes", 2600, 5 << 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peer := NewCoordinator(fastCfg(nil))
			defer peer.Close()
			peerSrv := httptest.NewServer(peer.Handler())
			defer peerSrv.Close()
			// A post may take twice the sync interval; batches of at most
			// maxWireLen bytes cross well within that under the race
			// detector.
			co := NewCoordinator(Config{SyncInterval: time.Second, Peers: []string{peerSrv.URL}})
			defer co.Close()

			recs := make([]ClaimRecord, tc.entries)
			for i := range recs {
				recs[i] = ClaimRecord{Key: fmt.Sprintf("%064x", i), Label: "run/CG", Spec: json.RawMessage(runSpecBody), State: ClaimPending}
				if tc.result > 0 {
					recs[i].State = ClaimDone
					recs[i].Attempt = 1
					recs[i].Result = bytes.Repeat([]byte{byte('a' + i%26)}, tc.result)
				}
			}
			co.table.Merge(recs)

			waitFor(t, 30*time.Second, func() bool { return len(peer.ClaimViews()) == tc.entries },
				"peer never received every claim")
			link := co.peers[0]
			waitFor(t, 10*time.Second, func() bool {
				link.mu.Lock()
				defer link.mu.Unlock()
				return link.attempted && link.ok
			}, "pusher never recorded the peer reachable")
			want := ClaimPending
			if tc.result > 0 {
				want = ClaimDone
			}
			for _, v := range peer.ClaimViews() {
				if v.State != want {
					t.Fatalf("peer claim %s is %s, want %s", v.Key, v.State, want)
				}
			}
		})
	}
}

// TestReplicateBodiesFitWireBound: batches split at maxWireLen bytes, so
// every post is small enough to cross within its timeout, while a record
// larger than that travels alone in one body the receiver still accepts.
func TestReplicateBodiesFitWireBound(t *testing.T) {
	rec := func(i, size int) ClaimRecord {
		return ClaimRecord{Key: fmt.Sprintf("%064x", i), Label: "run/CG", Spec: json.RawMessage(runSpecBody),
			State: ClaimDone, Attempt: 1, Result: bytes.Repeat([]byte{'a'}, size)}
	}
	recs := []ClaimRecord{rec(0, 300<<10), rec(1, 300<<10), rec(2, 3<<20), rec(3, 300<<10)}
	for i := 4; i < 20; i++ {
		recs = append(recs, rec(i, 300<<10))
	}
	bodies, err := replicateBodies(recs)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, body := range bodies {
		b, err := DecodeReplicateBatch(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("body %d refused by the receiver: %v", i, err)
		}
		total += len(b.Records)
		big := len(b.Records) == 1 && len(b.Records[0].Result) == 3<<20
		if len(body) > maxWireLen && !big {
			t.Fatalf("body %d is %d bytes with %d records, want at most %d", i, len(body), len(b.Records), maxWireLen)
		}
	}
	if total != len(recs) {
		t.Fatalf("bodies carry %d records, want %d", total, len(recs))
	}
}
