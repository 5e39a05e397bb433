// Package cluster turns a set of slipd processes into a fleet: workers
// *claim* jobs from a shared claim table by long-polling any
// coordinator. Each grant carries a lease the worker renews while
// running; an expired lease makes the claim claimable again (attempt+1)
// by any survivor, so no failure detector sits on the dispatch path.
// The claim table is also the coordinator's only record of workers: a
// worker is visible while it has polled, renewed or reported within one
// lease, or holds an unexpired lease in the table. Coordinators
// replicate the claim table to each other leader-lessly
// (append-and-reconcile on cache key + attempt), so any one of N
// coordinators can die without stranding work. Determinism plus content
// addressing make all of it safe: a job executed twice — after a lease
// expiry, or on a worker that was merely slow — produces exactly the
// same bytes under exactly the same cache key.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
)

// Wire-format bounds. Every message is validated against these on
// decode so a confused (or malicious) peer fails loudly at the edge
// instead of poisoning the claim table.
const (
	maxIDLen      = 128
	maxAddrLen    = 512
	maxLabelLen   = 128
	maxWireLen    = 2 << 20  // body cap for control-plane cluster messages
	maxResultLen  = 16 << 20 // body cap for messages carrying result bytes
	maxClaimWait  = 60_000   // longest long-poll hold a worker may request, ms
	maxAttemptNum = 1 << 20  // claim attempts beyond this are nonsense
	maxBatchRecs  = 4096     // claim records per replication batch
	maxPriority   = 8        // priority classes beyond this are nonsense
)

// Claim states as they appear on the wire and in the claim journal.
const (
	ClaimPending = "pending" // enqueued, waiting for a worker to claim it
	ClaimClaimed = "claimed" // leased to a worker
	ClaimDone    = "done"    // terminal: result bytes exist
	ClaimFailed  = "failed"  // terminal: deterministic failure or budget exhausted
)

func validClaimState(s string) bool {
	switch s {
	case ClaimPending, ClaimClaimed, ClaimDone, ClaimFailed:
		return true
	}
	return false
}

// ClaimRequest is a worker's long-poll for work: POST /cluster/claims.
// WaitMs asks the coordinator to hold the poll open until work appears
// (bounded by the coordinator's own cap); 0 means answer immediately.
type ClaimRequest struct {
	Worker string `json:"worker"`
	WaitMs int64  `json:"wait_ms,omitempty"`
}

// Validate applies the wire bounds.
func (c ClaimRequest) Validate() error {
	if err := validID(c.Worker); err != nil {
		return err
	}
	if c.WaitMs < 0 || c.WaitMs > maxClaimWait {
		return fmt.Errorf("claim: wait_ms %d outside [0, %d]", c.WaitMs, maxClaimWait)
	}
	return nil
}

// ClaimGrant is the coordinator's answer to a successful claim: the job
// spec in the server's normalized JSON encoding, the metrics label, the
// cache key the coordinator computed, the monotonic claim attempt, and
// the lease the worker must renew before it expires. The worker
// recomputes the key from the spec and refuses on mismatch, so a
// version-skewed fleet fails loudly instead of caching bytes under the
// wrong identity.
type ClaimGrant struct {
	Key      string          `json:"key"`
	Label    string          `json:"label"`
	Tenant   string          `json:"tenant,omitempty"`
	Priority int             `json:"priority,omitempty"`
	Spec     json.RawMessage `json:"spec"`
	Attempt  int             `json:"claim_attempt"`
	LeaseMs  int64           `json:"lease_ms"`
}

// Validate applies the wire bounds (the spec's content is validated by
// the server's own compile step).
func (g ClaimGrant) Validate() error {
	if !validKey(g.Key) {
		return fmt.Errorf("grant: malformed cache key %q", g.Key)
	}
	if g.Label == "" || len(g.Label) > maxLabelLen {
		return fmt.Errorf("grant: label length %d outside [1, %d]", len(g.Label), maxLabelLen)
	}
	if len(g.Spec) == 0 {
		return fmt.Errorf("grant: missing spec")
	}
	if len(g.Tenant) > maxIDLen {
		return fmt.Errorf("grant: tenant length %d exceeds %d", len(g.Tenant), maxIDLen)
	}
	if g.Priority < 0 || g.Priority > maxPriority {
		return fmt.Errorf("grant: priority %d outside [0, %d]", g.Priority, maxPriority)
	}
	if g.Attempt < 1 || g.Attempt > maxAttemptNum {
		return fmt.Errorf("grant: claim_attempt %d outside [1, %d]", g.Attempt, maxAttemptNum)
	}
	if g.LeaseMs < 1 {
		return fmt.Errorf("grant: lease_ms %d must be positive", g.LeaseMs)
	}
	return nil
}

// ClaimRenew extends a lease: POST /cluster/claims/renew. The attempt
// pins the renewal to one grant — a renewal from a superseded claimant
// (its lease expired and the claim moved on) is refused, telling that
// worker it no longer holds the lease.
type ClaimRenew struct {
	Worker  string `json:"worker"`
	Key     string `json:"key"`
	Attempt int    `json:"claim_attempt"`
}

// Validate applies the wire bounds.
func (c ClaimRenew) Validate() error {
	if err := validID(c.Worker); err != nil {
		return err
	}
	if !validKey(c.Key) {
		return fmt.Errorf("renew: malformed cache key %q", c.Key)
	}
	if c.Attempt < 1 || c.Attempt > maxAttemptNum {
		return fmt.Errorf("renew: claim_attempt %d outside [1, %d]", c.Attempt, maxAttemptNum)
	}
	return nil
}

// RenewAck reports whether the lease is still held by this worker.
type RenewAck struct {
	OK bool `json:"ok"`
}

// ClaimReport is a worker's terminal report: POST /cluster/claims/report.
// State is done (with the result bytes) or failed (with the error).
// Reports are first-terminal-wins: a duplicate — a re-execution after a
// lease expired on a merely-slow worker — is acknowledged but
// discarded, which is safe because determinism makes every copy's bytes
// identical.
type ClaimReport struct {
	Worker  string `json:"worker"`
	Key     string `json:"key"`
	Attempt int    `json:"claim_attempt"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	Result  []byte `json:"result,omitempty"`
}

// Validate applies the wire bounds.
func (c ClaimReport) Validate() error {
	if err := validID(c.Worker); err != nil {
		return err
	}
	if !validKey(c.Key) {
		return fmt.Errorf("report: malformed cache key %q", c.Key)
	}
	if c.Attempt < 1 || c.Attempt > maxAttemptNum {
		return fmt.Errorf("report: claim_attempt %d outside [1, %d]", c.Attempt, maxAttemptNum)
	}
	switch c.State {
	case ClaimDone:
	case ClaimFailed:
		if c.Error == "" {
			return fmt.Errorf("report: failed state without an error")
		}
	default:
		return fmt.Errorf("report: state %q is not terminal", c.State)
	}
	return nil
}

// ReportAck tells the worker whether its terminal report settled the
// claim (false: someone else's result already won).
type ReportAck struct {
	Accepted bool `json:"accepted"`
}

// ClaimRecord is one claim-table entry on the replication wire: the full
// lease state plus, for done entries, the result bytes so a surviving
// coordinator can serve them. Reconciliation is keyed on cache key +
// claim attempt; last-terminal-wins is safe because results are
// content-addressed and byte-identical.
type ClaimRecord struct {
	Key       string          `json:"key"`
	Label     string          `json:"label"`
	Tenant    string          `json:"tenant,omitempty"`
	Priority  int             `json:"priority,omitempty"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	State     string          `json:"state"`
	ClaimedBy string          `json:"claimed_by,omitempty"`
	ExpiresMs int64           `json:"claim_expires_at,omitempty"` // unix ms
	Attempt   int             `json:"claim_attempt"`
	Error     string          `json:"error,omitempty"`
	Result    []byte          `json:"result,omitempty"`
}

// Validate applies the wire bounds.
func (c ClaimRecord) Validate() error {
	if !validKey(c.Key) {
		return fmt.Errorf("claim record: malformed cache key %q", c.Key)
	}
	if c.Label == "" || len(c.Label) > maxLabelLen {
		return fmt.Errorf("claim record: label length %d outside [1, %d]", len(c.Label), maxLabelLen)
	}
	if !validClaimState(c.State) {
		return fmt.Errorf("claim record: unknown state %q", c.State)
	}
	if len(c.Tenant) > maxIDLen {
		return fmt.Errorf("claim record: tenant length %d exceeds %d", len(c.Tenant), maxIDLen)
	}
	if c.Priority < 0 || c.Priority > maxPriority {
		return fmt.Errorf("claim record: priority %d outside [0, %d]", c.Priority, maxPriority)
	}
	if c.Attempt < 0 || c.Attempt > maxAttemptNum {
		return fmt.Errorf("claim record: claim_attempt %d outside [0, %d]", c.Attempt, maxAttemptNum)
	}
	if c.ClaimedBy != "" {
		if err := validID(c.ClaimedBy); err != nil {
			return fmt.Errorf("claim record: %w", err)
		}
	}
	return nil
}

// ReplicateBatch carries claim records between coordinators:
// POST /cluster/claims/replicate.
type ReplicateBatch struct {
	From    string        `json:"from"`
	Records []ClaimRecord `json:"records"`
}

// Validate applies the wire bounds.
func (b ReplicateBatch) Validate() error {
	if b.From == "" || len(b.From) > maxAddrLen {
		return fmt.Errorf("replicate: from length %d outside [1, %d]", len(b.From), maxAddrLen)
	}
	if len(b.Records) > maxBatchRecs {
		return fmt.Errorf("replicate: %d records exceeds %d", len(b.Records), maxBatchRecs)
	}
	for i, r := range b.Records {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("replicate: record %d: %w", i, err)
		}
	}
	return nil
}

// DecodeClaimRequest strictly decodes and validates a ClaimRequest body.
func DecodeClaimRequest(r io.Reader) (ClaimRequest, error) {
	var m ClaimRequest
	if err := decodeStrict(r, &m); err != nil {
		return ClaimRequest{}, err
	}
	return m, m.Validate()
}

// DecodeClaimGrant strictly decodes and validates a ClaimGrant body.
func DecodeClaimGrant(r io.Reader) (ClaimGrant, error) {
	var m ClaimGrant
	if err := decodeStrict(r, &m); err != nil {
		return ClaimGrant{}, err
	}
	return m, m.Validate()
}

// DecodeClaimRenew strictly decodes and validates a ClaimRenew body.
func DecodeClaimRenew(r io.Reader) (ClaimRenew, error) {
	var m ClaimRenew
	if err := decodeStrict(r, &m); err != nil {
		return ClaimRenew{}, err
	}
	return m, m.Validate()
}

// DecodeClaimReport strictly decodes and validates a ClaimReport body.
// It uses the large body cap: reports carry result bytes.
func DecodeClaimReport(r io.Reader) (ClaimReport, error) {
	var m ClaimReport
	if err := decodeStrictLimit(r, &m, maxResultLen); err != nil {
		return ClaimReport{}, err
	}
	return m, m.Validate()
}

// DecodeReplicateBatch strictly decodes and validates a ReplicateBatch
// body. It uses the large body cap: done records carry result bytes.
func DecodeReplicateBatch(r io.Reader) (ReplicateBatch, error) {
	var m ReplicateBatch
	if err := decodeStrictLimit(r, &m, maxResultLen); err != nil {
		return ReplicateBatch{}, err
	}
	return m, m.Validate()
}

// decodeStrict rejects unknown fields, trailing data, and oversized
// bodies, so typos and confused peers fail loudly at the edge.
func decodeStrict(r io.Reader, v any) error {
	return decodeStrictLimit(r, v, maxWireLen)
}

func decodeStrictLimit(r io.Reader, v any, limit int64) error {
	dec := json.NewDecoder(io.LimitReader(r, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var trailing any
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("trailing data after cluster message")
	}
	return nil
}

// validID bounds a worker id: printable ASCII without spaces keeps ids
// safe in logs, metrics labels, and URLs.
func validID(id string) error {
	if id == "" || len(id) > maxIDLen {
		return fmt.Errorf("worker id length %d outside [1, %d]", len(id), maxIDLen)
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return fmt.Errorf("worker id contains byte 0x%02x", id[i])
		}
	}
	return nil
}

// validKey reports whether k looks like a sha256 cache key (64 lowercase
// hex characters), matching the store's key discipline.
func validKey(k string) bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
