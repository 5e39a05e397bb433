package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Long polls must leave nothing behind: a poll that times out, is
// cancelled mid-wait (client disconnect), or loses a wake race cleans
// up its goroutine and its one deadline timer. Regression test for the
// per-iteration timer churn the long-poll refactor removed.
func TestLongPollLeaksNoGoroutines(t *testing.T) {
	co := NewCoordinator(Config{
		SyncInterval:  50 * time.Millisecond,
		LeaseDuration: time.Second,
		ClaimWait:     200 * time.Millisecond,
		Logf:          func(string, ...any) {},
	})
	defer co.Close()
	handler := co.Handler()

	poll := func(ctx context.Context, waitMs int) {
		body := fmt.Sprintf(`{"worker":"w1","wait_ms":%d}`, waitMs)
		req := httptest.NewRequest(http.MethodPost, "/cluster/claims", strings.NewReader(body)).WithContext(ctx)
		handler.ServeHTTP(httptest.NewRecorder(), req)
	}
	poll(context.Background(), 1) // warm up lazy runtime state before the baseline
	runtime.GC()
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		cancelled := i%2 == 0
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			if cancelled {
				// Client disconnects mid-wait: the r.Context().Done() arm.
				time.AfterFunc(5*time.Millisecond, cancel)
				poll(ctx, 150)
			} else {
				defer cancel()
				poll(ctx, 20) // times out: the timer.C arm
			}
		}()
	}
	wg.Wait()

	// The scheduler needs a beat to retire finished goroutines; poll
	// instead of asserting instantly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: baseline %d, now %d after 60 long-polls\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A coordinator whose clock runs ahead of the lease holder's must not
// expire a replicated lease that the true holder is still renewing —
// as long as the skew stays under the renewal margin, the refreshed
// expiry deadline always outruns the skewed sweep. Double-granting here
// is how split-brain duplicate work starts.
func TestSkewedPeerHonorsRenewedLease(t *testing.T) {
	const (
		lease = 10 * time.Second
		skew  = 4 * time.Second // < lease - renew cadence: the safe regime
	)
	holderTbl, holderClk := testTable(lease, 5)
	skewClk := newFakeClock()
	skewClk.advance(skew)
	skewTbl := newClaimTable(skewClk.now, lease, 5)

	key := claimKey(7)
	holderDone := holderTbl.Enqueue(key, "run/CG", "default", 0, []byte(`{"kind":"run"}`))
	g, ok := holderTbl.Claim("w1")
	if !ok || g.Attempt != 1 {
		t.Fatalf("grant = %+v ok=%v", g, ok)
	}

	// Holder renews every lease/3 while both clocks advance in step and
	// the claim replicates to the skewed peer each beat.
	step := lease / 3
	for i := 0; i < 12; i++ {
		skewTbl.Merge(holderTbl.Snapshot())
		skewTbl.SweepLeases()
		if _, ok := skewTbl.Claim("w2"); ok {
			t.Fatalf("beat %d: skewed peer double-granted a lease the holder renews", i)
		}
		holderClk.advance(step)
		skewClk.advance(step)
		if !holderTbl.Renew("w1", key, 1) {
			t.Fatalf("beat %d: holder's renew refused", i)
		}
	}
	if ctr := skewTbl.Counters(); ctr.Expirations != 0 {
		t.Fatalf("skewed peer expired %d renewed leases, want 0", ctr.Expirations)
	}

	// The holder settles; the peer adopts exactly one terminal state.
	if !holderTbl.Report("w1", key, ClaimDone, []byte("BYTES"), "") {
		t.Fatal("holder's report rejected")
	}
	<-holderDone
	skewTbl.Merge(holderTbl.Snapshot())
	b, errMsg, ok := skewTbl.Result(key)
	if !ok || errMsg != "" || string(b) != "BYTES" {
		t.Fatalf("skewed peer result = %q %q %v", b, errMsg, ok)
	}
	if ctr := skewTbl.Counters(); ctr.Expirations != 0 {
		t.Fatalf("expirations after settle = %d, want 0", ctr.Expirations)
	}

	// Control: once the holder stops renewing, the skewed peer MUST
	// eventually reclaim — skew tolerance is not lease immortality.
	key2 := claimKey(8)
	holderTbl.Enqueue(key2, "run/CG", "default", 0, []byte(`{"kind":"run"}`))
	if _, ok := holderTbl.Claim("w1"); !ok {
		t.Fatal("second grant refused")
	}
	skewTbl.Merge(holderTbl.Snapshot())
	skewClk.advance(lease + time.Second)
	skewTbl.SweepLeases()
	if _, ok := skewTbl.Claim("w2"); !ok {
		t.Fatal("skewed peer never reclaimed an abandoned lease")
	}
	if ctr := skewTbl.Counters(); ctr.Expirations != 1 {
		t.Fatalf("expirations after abandonment = %d, want 1", ctr.Expirations)
	}
}

// FuzzClaimMerge drives the replication merge with arbitrary record
// batches applied in opposite orders to two tables, then one exchange
// round. Merge is the fleet's only reconciliation primitive and runs
// leader-less, so it must behave as a join: after exchanging snapshots
// the tables agree on every key's state, attempt, and terminal payload
// regardless of delivery order. (Lease metadata — holder, expiry — may
// differ transiently at equal attempts; terminal facts may not.)
func FuzzClaimMerge(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x33})
	f.Add([]byte{0x01, 0x42, 0x02, 0x41, 0x03, 0x40})
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8})
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode two bytes per record, at most 24 records over 4 keys.
		// Done records always carry key-determined bytes: the simulator
		// is deterministic, so equal keys never have conflicting results
		// — merge only has to converge states, not arbitrate payloads.
		states := []string{ClaimPending, ClaimClaimed, ClaimDone, ClaimFailed}
		var recs []ClaimRecord
		for i := 0; i+1 < len(data) && len(recs) < 24; i += 2 {
			key := claimKey(int(data[i]) % 4)
			state := states[int(data[i]>>4)%len(states)]
			r := ClaimRecord{
				Key:     key,
				Label:   "run/CG",
				Spec:    []byte(`{"kind":"run"}`),
				State:   state,
				Attempt: int(data[i+1]) % 6,
			}
			switch state {
			case ClaimClaimed:
				r.ClaimedBy = fmt.Sprintf("w%d", data[i+1]%3)
				r.ExpiresMs = int64(1700000000000 + int(data[i+1])*1000)
			case ClaimDone:
				r.Result = []byte("res-" + key[:8])
			case ClaimFailed:
				r.Error = "diverged"
			}
			recs = append(recs, r)
		}

		clk := newFakeClock()
		a := newClaimTable(clk.now, time.Second, 10)
		b := newClaimTable(clk.now, time.Second, 10)
		for _, r := range recs {
			a.Merge([]ClaimRecord{r})
		}
		for i := len(recs) - 1; i >= 0; i-- {
			b.Merge([]ClaimRecord{recs[i]})
		}
		a.Merge(b.Snapshot())
		b.Merge(a.Snapshot())

		av, bv := a.Views(), b.Views()
		am := map[string]ClaimView{}
		for _, v := range av {
			am[v.Key] = v
		}
		if len(av) != len(bv) {
			t.Fatalf("key sets diverge: %d vs %d entries", len(av), len(bv))
		}
		for _, v := range bv {
			w, ok := am[v.Key]
			if !ok {
				t.Fatalf("key %s only on one side", v.Key[:8])
			}
			if w.State != v.State || w.Attempt != v.Attempt {
				t.Fatalf("key %s diverged after exchange: %s/%d vs %s/%d",
					v.Key[:8], w.State, w.Attempt, v.State, v.Attempt)
			}
			if v.State == ClaimDone || v.State == ClaimFailed {
				ar, aerr, _ := a.Result(v.Key)
				br, berr, _ := b.Result(v.Key)
				if !bytes.Equal(ar, br) || aerr != berr {
					t.Fatalf("key %s terminal payload diverged: %q/%q vs %q/%q",
						v.Key[:8], ar, aerr, br, berr)
				}
			}
		}
	})
}
