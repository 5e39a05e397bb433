package cluster

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// claimKey makes a distinct well-formed cache key per test fixture.
func claimKey(i int) string {
	return fmt.Sprintf("%064x", i)
}

func testTable(lease time.Duration, maxAttempts int) (*ClaimTable, *fakeClock) {
	clk := newFakeClock()
	return newClaimTable(clk.now, lease, maxAttempts), clk
}

func TestClaimLifecycle(t *testing.T) {
	tb, _ := testTable(10*time.Second, 3)
	key := claimKey(1)
	done := tb.Enqueue(key, "run/CG", "default", 0, json.RawMessage(`{"kind":"run"}`))

	g, ok := tb.Claim("w1")
	if !ok {
		t.Fatal("pending claim not granted")
	}
	if g.Key != key || g.Attempt != 1 || g.LeaseMs != 10_000 {
		t.Fatalf("grant = %+v", g)
	}
	if _, ok := tb.Claim("w2"); ok {
		t.Fatal("second worker claimed a live lease")
	}
	if !tb.Renew("w1", key, 1) {
		t.Fatal("holder's renew refused")
	}
	if tb.Renew("w2", key, 1) || tb.Renew("w1", key, 2) {
		t.Fatal("renew accepted for wrong worker or wrong attempt")
	}

	if !tb.Report("w1", key, ClaimDone, []byte("BYTES"), "") {
		t.Fatal("terminal report rejected")
	}
	select {
	case <-done:
	default:
		t.Fatal("done channel not closed after settle")
	}
	b, errMsg, ok := tb.Result(key)
	if !ok || errMsg != "" || string(b) != "BYTES" {
		t.Fatalf("Result = %q %q %v", b, errMsg, ok)
	}
	ctr := tb.Counters()
	if ctr.Granted != 1 || ctr.Done != 1 || ctr.Failed != 0 || ctr.Expirations != 0 {
		t.Fatalf("counters = %+v", ctr)
	}

	// Re-enqueueing a done entry with bytes returns a closed channel.
	again := tb.Enqueue(key, "run/CG", "default", 0, nil)
	select {
	case <-again:
	default:
		t.Fatal("re-enqueue of a done claim did not return a settled channel")
	}
}

// TestExpiredLeaseReclaimedExactlyOnce is the HA invariant: when a lease
// expires, any number of concurrent claimers may race for it, but
// exactly one wins and the attempt is bumped exactly once.
func TestExpiredLeaseReclaimedExactlyOnce(t *testing.T) {
	tb, clk := testTable(time.Second, 10)
	key := claimKey(2)
	tb.Enqueue(key, "run/CG", "default", 0, nil)
	if g, ok := tb.Claim("w0"); !ok || g.Attempt != 1 {
		t.Fatalf("first claim: ok=%v grant=%+v", ok, g)
	}

	clk.advance(2 * time.Second) // the lease is now expired

	const racers = 16
	var wg sync.WaitGroup
	grants := make(chan ClaimGrant, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if g, ok := tb.Claim(fmt.Sprintf("racer-%d", i)); ok {
				grants <- g
			}
		}(i)
	}
	wg.Wait()
	close(grants)

	var won []ClaimGrant
	for g := range grants {
		won = append(won, g)
	}
	if len(won) != 1 {
		t.Fatalf("%d racers reclaimed the expired lease, want exactly 1", len(won))
	}
	if won[0].Attempt != 2 {
		t.Fatalf("reclaim attempt = %d, want 2", won[0].Attempt)
	}
	if ctr := tb.Counters(); ctr.Expirations != 1 || ctr.Granted != 2 {
		t.Fatalf("counters after racing reclaim: %+v", ctr)
	}
}

func TestClaimAttemptMonotonicAndBudget(t *testing.T) {
	tb, clk := testTable(time.Second, 3)
	key := claimKey(3)
	done := tb.Enqueue(key, "run/CG", "default", 0, nil)

	// Burn the whole budget through expiry reclaims; the attempt must
	// climb strictly, never repeat or regress.
	for want := 1; want <= 3; want++ {
		g, ok := tb.Claim("w1")
		if !ok || g.Attempt != want {
			t.Fatalf("claim %d: ok=%v attempt=%d", want, ok, g.Attempt)
		}
		clk.advance(2 * time.Second)
	}

	// The fourth lease would exceed the budget: the entry fails instead.
	if _, ok := tb.Claim("w1"); ok {
		t.Fatal("claim granted past the attempt budget")
	}
	select {
	case <-done:
	default:
		t.Fatal("budget exhaustion did not settle the claim")
	}
	_, errMsg, ok := tb.Result(key)
	if !ok || errMsg == "" {
		t.Fatalf("exhausted claim: ok=%v err=%q, want a terminal failure", ok, errMsg)
	}
	if ctr := tb.Counters(); ctr.Failed != 1 {
		t.Fatalf("counters = %+v, want Failed=1", ctr)
	}
}

// TestDoubleTerminalCollapse: when an expired lease is reclaimed and the
// original holder later reports anyway, the two terminal reports
// collapse to one settled result and one duplicate.
func TestDoubleTerminalCollapse(t *testing.T) {
	tb, clk := testTable(time.Second, 5)
	key := claimKey(4)
	tb.Enqueue(key, "run/CG", "default", 0, nil)
	tb.Claim("slow") // attempt 1
	clk.advance(2 * time.Second)
	tb.Claim("fast") // attempt 2 reclaims

	if !tb.Report("fast", key, ClaimDone, []byte("SAME-BYTES"), "") {
		t.Fatal("winning report rejected")
	}
	// The superseded worker's report — byte-identical by determinism —
	// must be discarded as a duplicate, not double-settle.
	if tb.Report("slow", key, ClaimDone, []byte("SAME-BYTES"), "") {
		t.Fatal("duplicate terminal report accepted")
	}
	b, _, _ := tb.Result(key)
	if string(b) != "SAME-BYTES" {
		t.Fatalf("result = %q", b)
	}
	if ctr := tb.Counters(); ctr.Done != 1 || ctr.Duplicate != 1 {
		t.Fatalf("counters = %+v, want Done=1 Duplicate=1", ctr)
	}
}

// A late report from a superseded lease still settles the claim when it
// arrives first — first terminal wins regardless of attempt.
func TestSupersededReportStillWins(t *testing.T) {
	tb, clk := testTable(time.Second, 5)
	key := claimKey(5)
	tb.Enqueue(key, "run/CG", "default", 0, nil)
	tb.Claim("slow")
	clk.advance(2 * time.Second)
	tb.Claim("fast")

	if !tb.Report("slow", key, ClaimDone, []byte("OLD-ATTEMPT"), "") {
		t.Fatal("first terminal report (old attempt) rejected")
	}
	b, _, ok := tb.Result(key)
	if !ok || string(b) != "OLD-ATTEMPT" {
		t.Fatalf("result = %q ok=%v", b, ok)
	}
}

func TestSweepLeasesRePendsAndPrunes(t *testing.T) {
	tb, clk := testTable(time.Second, 5)
	expiredKey, doneKey := claimKey(7), claimKey(8)
	tb.Enqueue(expiredKey, "run/CG", "default", 0, nil)
	tb.Claim("w1")
	tb.Enqueue(doneKey, "run/CG", "default", 0, nil)
	tb.Claim("w2")
	tb.Report("w2", doneKey, ClaimDone, []byte("B"), "")

	clk.advance(2 * time.Second)
	if n := tb.SweepLeases(); n != 1 {
		t.Fatalf("sweep expired %d leases, want 1", n)
	}
	// The expired claim is pending again and immediately claimable.
	if g, ok := tb.Claim("w3"); !ok || g.Key != expiredKey || g.Attempt != 2 {
		t.Fatalf("post-sweep claim: ok=%v grant=%+v", ok, g)
	}

	// Terminal entries outlive the sweep until the retain window passes.
	if _, _, ok := tb.Result(doneKey); !ok {
		t.Fatal("settled entry pruned too early")
	}
	clk.advance(terminalRetain + time.Minute)
	tb.SweepLeases()
	if _, _, ok := tb.Result(doneKey); ok {
		t.Fatal("settled entry survived past the retain window")
	}
}

func TestMergePrecedence(t *testing.T) {
	tb, _ := testTable(10*time.Second, 5)

	// An unknown incoming claim is inserted.
	k1 := claimKey(10)
	tb.Merge([]ClaimRecord{{Key: k1, Label: "run/CG", State: ClaimClaimed, ClaimedBy: "peer-w", Attempt: 2, ExpiresMs: 99}})
	vs := tb.Views()
	if len(vs) != 1 || vs[0].State != ClaimClaimed || vs[0].Attempt != 2 {
		t.Fatalf("merge insert: %+v", vs)
	}

	// A lower-attempt incoming state never regresses the local entry.
	tb.Merge([]ClaimRecord{{Key: k1, Label: "run/CG", State: ClaimPending, Attempt: 1}})
	if vs := tb.Views(); vs[0].Attempt != 2 || vs[0].State != ClaimClaimed {
		t.Fatalf("merge regressed entry: %+v", vs[0])
	}

	// An incoming terminal state settles the local entry (without
	// recounting: the peer already counted the settle).
	done := tb.Enqueue(k1, "run/CG", "default", 0, nil)
	tb.Merge([]ClaimRecord{{Key: k1, Label: "run/CG", State: ClaimDone, Attempt: 3, Result: []byte("PEER-BYTES")}})
	select {
	case <-done:
	default:
		t.Fatal("incoming terminal state did not settle the local claim")
	}
	if b, _, ok := tb.Result(k1); !ok || string(b) != "PEER-BYTES" {
		t.Fatalf("merged result = %q ok=%v", b, ok)
	}
	if ctr := tb.Counters(); ctr.Done != 0 {
		t.Fatalf("peer-settled claim counted locally: %+v", ctr)
	}

	// A local terminal state beats any incoming non-terminal churn.
	tb.Merge([]ClaimRecord{{Key: k1, Label: "run/CG", State: ClaimClaimed, ClaimedBy: "x", Attempt: 9, ExpiresMs: 1}})
	if b, _, ok := tb.Result(k1); !ok || string(b) != "PEER-BYTES" {
		t.Fatalf("incoming churn un-settled a terminal claim: %q %v", b, ok)
	}

	// Merge commutes: A→B and B→A converge to the same table.
	mkRecords := func() ([]ClaimRecord, []ClaimRecord) {
		a := []ClaimRecord{
			{Key: claimKey(11), Label: "l", State: ClaimClaimed, ClaimedBy: "w1", Attempt: 1, ExpiresMs: 50},
			{Key: claimKey(12), Label: "l", State: ClaimDone, Attempt: 1, Result: []byte("R")},
		}
		b := []ClaimRecord{
			{Key: claimKey(11), Label: "l", State: ClaimClaimed, ClaimedBy: "w2", Attempt: 2, ExpiresMs: 60},
			{Key: claimKey(12), Label: "l", State: ClaimPending, Attempt: 1},
		}
		return a, b
	}
	ta, _ := testTable(10*time.Second, 5)
	tbb, _ := testTable(10*time.Second, 5)
	a, b := mkRecords()
	ta.Merge(a)
	ta.Merge(b)
	tbb.Merge(b)
	tbb.Merge(a)
	va, vb := ta.Views(), tbb.Views()
	if len(va) != len(vb) {
		t.Fatalf("merge order changed table size: %d vs %d", len(va), len(vb))
	}
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("merge does not commute: %+v vs %+v", va[i], vb[i])
		}
	}
}

func TestEnqueueResurrectsFailedClaim(t *testing.T) {
	tb, _ := testTable(10*time.Second, 1)
	key := claimKey(13)
	tb.Enqueue(key, "run/CG", "default", 0, nil)
	tb.Claim("w1")
	tb.Report("w1", key, ClaimFailed, nil, "transient crash")

	// A fresh submission gets a fresh claim with a reset budget.
	done := tb.Enqueue(key, "run/CG", "default", 0, nil)
	select {
	case <-done:
		t.Fatal("resurrected claim came back already settled")
	default:
	}
	if g, ok := tb.Claim("w2"); !ok || g.Attempt != 1 {
		t.Fatalf("resurrected claim: ok=%v grant=%+v", ok, g)
	}
}

// TestSeedRestoresLeases: a restarted coordinator replays its journal
// and the interrupted lease expires on schedule, not immediately.
func TestSeedRestoresLeases(t *testing.T) {
	tb, clk := testTable(time.Second, 5)
	key := claimKey(14)
	tb.seed([]store.Record{
		{Key: key, State: ClaimClaimed, Label: "run/CG", ClaimedBy: "w1", ClaimAttempt: 2, ClaimExpiresAt: clk.now().Add(500 * time.Millisecond).UnixMilli()},
	})

	// Lease still live: nobody can steal it.
	if _, ok := tb.Claim("w2"); ok {
		t.Fatal("restored live lease was stolen")
	}
	clk.advance(time.Second)
	g, ok := tb.Claim("w2")
	if !ok || g.Attempt != 3 {
		t.Fatalf("restored lease not reclaimed after expiry: ok=%v grant=%+v", ok, g)
	}
}
