package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// ErrClaimAbandoned tells the claimer a grant could not even start
// locally (queue full, server draining). The claimer sends no report —
// the lease simply expires and another worker picks the job up — so a
// transient local refusal never burns a claim attempt as a failure.
var ErrClaimAbandoned = errors.New("claim abandoned")

// ClaimerConfig tunes a worker's claim loop.
type ClaimerConfig struct {
	// Coordinators are the base URLs claims are long-polled from, round
	// robin, so one dead coordinator costs a timeout, not the worker.
	Coordinators []string
	// ID is this worker's fleet identity.
	ID string
	// Slots bounds concurrent claims held by this worker (default 1).
	Slots int
	// KeyFor recomputes the cache key from a granted spec. A mismatch
	// with the grant's key means version skew — the claim is reported
	// failed instead of caching bytes under the wrong identity.
	KeyFor func(specJSON []byte) (string, error)
	// Run executes the granted spec locally and returns the result
	// bytes. Wrapping ErrClaimAbandoned abandons the claim silently.
	Run func(ctx context.Context, specJSON []byte) ([]byte, error)
	// PollWait is the long-poll hold requested per claim (default 2s).
	PollWait time.Duration
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c ClaimerConfig) withDefaults() ClaimerConfig {
	if c.Slots <= 0 {
		c.Slots = 1
	}
	if c.PollWait <= 0 {
		c.PollWait = 2 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Claimer is a worker's pull loop: long-poll coordinators for claims,
// run each granted job while renewing its lease, report the terminal
// state to the coordinator that granted it.
type Claimer struct {
	cfg    ClaimerConfig
	ctx    context.Context // cancelled by Stop; bounds polling and renewals
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup
}

// StartClaimer validates the config and begins claiming. Stop it when
// done. A worker id the wire format refuses, or no coordinator to claim
// from, is an error here: either would otherwise leave the loop polling
// forever without ever being granted work.
func StartClaimer(cfg ClaimerConfig) (*Claimer, error) {
	if err := validID(cfg.ID); err != nil {
		return nil, fmt.Errorf("claimer: %w", err)
	}
	if len(cfg.Coordinators) == 0 {
		return nil, fmt.Errorf("claimer: no coordinator URL to claim from")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Claimer{cfg: cfg, ctx: ctx, cancel: cancel, sem: make(chan struct{}, cfg.Slots)}
	c.wg.Add(1)
	go c.loop()
	return c, nil
}

// Stop halts claiming and waits for claims already being run to finish
// and report. In-flight work completes — a clean shutdown leaves no
// lease to expire.
func (c *Claimer) Stop() {
	c.cancel()
	c.wg.Wait()
}

func (c *Claimer) loop() {
	defer c.wg.Done()
	next := 0 // round-robin cursor over coordinators
	for {
		select {
		case <-c.ctx.Done():
			return
		case c.sem <- struct{}{}:
		}
		granted, answered := false, false
		for range c.cfg.Coordinators {
			co := c.cfg.Coordinators[next%len(c.cfg.Coordinators)]
			next++
			g, ok, err := c.claimFrom(co)
			if err != nil {
				if c.ctx.Err() != nil {
					<-c.sem
					return
				}
				continue // coordinator down or talking nonsense; try the next
			}
			answered = true
			if !ok {
				continue // long-poll expired empty
			}
			granted = true
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				defer func() { <-c.sem }()
				c.runClaim(co, g)
			}()
			break
		}
		if !granted {
			<-c.sem
			if answered {
				continue // the long-poll paced this round
			}
			// Every coordinator was unreachable; this sleep only stops a
			// dead-fleet worker from spinning.
			select {
			case <-c.ctx.Done():
				return
			case <-time.After(250 * time.Millisecond):
			}
		}
	}
}

// claimFrom long-polls one coordinator. ok=false with nil error means
// the poll expired with nothing claimable.
func (c *Claimer) claimFrom(coURL string) (ClaimGrant, bool, error) {
	body, err := json.Marshal(ClaimRequest{Worker: c.cfg.ID, WaitMs: c.cfg.PollWait.Milliseconds()})
	if err != nil {
		return ClaimGrant{}, false, err
	}
	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.PollWait+5*time.Second)
	defer cancel()
	resp, err := c.post(ctx, coURL+"/cluster/claims", body)
	if err != nil {
		return ClaimGrant{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		io.Copy(io.Discard, resp.Body)
		return ClaimGrant{}, false, nil
	case http.StatusOK:
		g, err := DecodeClaimGrant(resp.Body)
		if err != nil {
			return ClaimGrant{}, false, fmt.Errorf("malformed grant from %s: %w", coURL, err)
		}
		return g, true, nil
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return ClaimGrant{}, false, fmt.Errorf("claim against %s: HTTP %d", coURL, resp.StatusCode)
	}
}

// runClaim executes one granted claim end to end: version-skew check,
// lease renewals, local execution, terminal report — all against the
// coordinator that granted the lease. If that coordinator dies, the
// report is dropped on purpose: a surviving coordinator's lease expiry
// re-pends the claim, and the re-execution hits this worker's
// content-addressed cache, so recovery costs one lease timeout.
func (c *Claimer) runClaim(coURL string, g ClaimGrant) {
	key, err := c.cfg.KeyFor(g.Spec)
	if err != nil || key != g.Key {
		if err == nil {
			err = fmt.Errorf("granted key %s but spec hashes to %s", g.Key, key)
		}
		c.cfg.Logf("claimer: cache key mismatch (version skew): %v", err)
		c.report(coURL, g, ClaimFailed, nil, "cache key mismatch (version skew)")
		return
	}

	// Detached from the polling context on purpose: Stop halts new
	// claims but waits for held ones to run to completion and report, so
	// a clean shutdown leaves no lease behind to expire.
	renewCtx, stopRenew := context.WithCancel(context.Background())
	var renewWG sync.WaitGroup
	renewWG.Add(1)
	go func() {
		defer renewWG.Done()
		c.renewLoop(renewCtx, coURL, g)
	}()

	result, runErr := c.cfg.Run(context.Background(), g.Spec)
	stopRenew()
	renewWG.Wait()

	switch {
	case runErr == nil:
		c.report(coURL, g, ClaimDone, result, "")
	case errors.Is(runErr, ErrClaimAbandoned):
		c.cfg.Logf("claimer: abandoned claim %s (%v); lease will expire", g.Key[:12], runErr)
	default:
		c.report(coURL, g, ClaimFailed, nil, runErr.Error())
	}
}

// renewLoop extends the lease at a third of its duration until the
// claim finishes or the coordinator refuses (the lease moved on).
func (c *Claimer) renewLoop(ctx context.Context, coURL string, g ClaimGrant) {
	interval := time.Duration(g.LeaseMs) * time.Millisecond / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	body, err := json.Marshal(ClaimRenew{Worker: c.cfg.ID, Key: g.Key, Attempt: g.Attempt})
	if err != nil {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		rctx, cancel := context.WithTimeout(ctx, interval)
		resp, err := c.post(rctx, coURL+"/cluster/claims/renew", body)
		if err != nil {
			cancel()
			continue // granter unreachable; keep running, the lease may expire
		}
		var ack RenewAck
		jerr := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&ack)
		resp.Body.Close()
		cancel()
		if jerr == nil && !ack.OK {
			c.cfg.Logf("claimer: lease on %s lost (superseded); finishing anyway", g.Key[:12])
			return
		}
	}
}

// report delivers the terminal state to the granting coordinator, with
// a few quick retries. Giving up is safe: the lease expires and the
// fleet re-executes, which determinism makes free.
func (c *Claimer) report(coURL string, g ClaimGrant, state string, result []byte, errMsg string) {
	body, err := json.Marshal(ClaimReport{
		Worker:  c.cfg.ID,
		Key:     g.Key,
		Attempt: g.Attempt,
		State:   state,
		Error:   errMsg,
		Result:  result,
	})
	if err != nil {
		c.cfg.Logf("claimer: marshal report: %v", err)
		return
	}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		resp, err := c.post(ctx, coURL+"/cluster/claims/report", body)
		if err == nil {
			var ack ReportAck
			jerr := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&ack)
			resp.Body.Close()
			cancel()
			if jerr == nil {
				if !ack.Accepted {
					c.cfg.Logf("claimer: report for %s was a duplicate (another copy won)", g.Key[:12])
				}
				return
			}
		} else {
			cancel()
		}
		time.Sleep(200 * time.Millisecond)
	}
	c.cfg.Logf("claimer: dropping report for %s (granter unreachable); lease expiry will recover it", g.Key[:12])
}

func (c *Claimer) post(ctx context.Context, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.cfg.HTTPClient.Do(req)
}
