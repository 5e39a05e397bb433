package cluster

import (
	"strings"
	"testing"
)

var testKey = strings.Repeat("ab", 32)

func TestDecodeClaimRequest(t *testing.T) {
	m, err := DecodeClaimRequest(strings.NewReader(`{"worker":"w1","wait_ms":1500}`))
	if err != nil {
		t.Fatalf("valid claim request rejected: %v", err)
	}
	if m.Worker != "w1" || m.WaitMs != 1500 {
		t.Fatalf("decoded %+v", m)
	}
	bad := []string{
		`{"worker":"","wait_ms":0}`,        // empty worker
		`{"worker":"w1","wait_ms":-1}`,     // negative wait
		`{"worker":"w1","wait_ms":999999}`, // wait over cap
		`{"worker":"w1","nope":1}`,         // unknown field
		`{"worker":"w1"}{"worker":"w2"}`,   // trailing message
		`not json`,
	}
	for _, b := range bad {
		if _, err := DecodeClaimRequest(strings.NewReader(b)); err == nil {
			t.Errorf("accepted bad claim request: %s", b)
		}
	}
}

func TestDecodeClaimGrant(t *testing.T) {
	g, err := DecodeClaimGrant(strings.NewReader(`{"key":"` + testKey + `","spec":{"kind":"run"},"claim_attempt":2,"lease_ms":10000}`))
	if err != nil {
		t.Fatalf("valid grant rejected: %v", err)
	}
	if g.Key != testKey || g.Attempt != 2 || g.LeaseMs != 10000 {
		t.Fatalf("decoded %+v", g)
	}
	bad := []string{
		`{"key":"short","spec":{},"claim_attempt":1,"lease_ms":1}`,                            // malformed key
		`{"key":"` + strings.ToUpper(testKey) + `","spec":{},"claim_attempt":1,"lease_ms":1}`, // uppercase hex
		`{"key":"` + testKey + `","claim_attempt":1,"lease_ms":1}`,                            // no spec
		`{"key":"` + testKey + `","spec":{},"claim_attempt":0,"lease_ms":1}`,                  // attempt < 1
		`{"key":"` + testKey + `","spec":{},"claim_attempt":1,"lease_ms":0}`,                  // no lease
		`{"key":"` + testKey + `","label":"x","spec":{},"claim_attempt":1,"lease_ms":1}`,      // retired label field
	}
	for _, b := range bad {
		if _, err := DecodeClaimGrant(strings.NewReader(b)); err == nil {
			t.Errorf("accepted bad grant: %s", b)
		}
	}
}

func TestDecodeClaimRenew(t *testing.T) {
	m, err := DecodeClaimRenew(strings.NewReader(`{"worker":"w1","key":"` + testKey + `","claim_attempt":3}`))
	if err != nil {
		t.Fatalf("valid renew rejected: %v", err)
	}
	if m.Worker != "w1" || m.Attempt != 3 {
		t.Fatalf("decoded %+v", m)
	}
	bad := []string{
		`{"worker":"w1","key":"nope","claim_attempt":1}`,            // malformed key
		`{"worker":"w1","key":"` + testKey + `","claim_attempt":0}`, // attempt < 1
		`{"worker":"","key":"` + testKey + `","claim_attempt":1}`,   // empty worker
	}
	for _, b := range bad {
		if _, err := DecodeClaimRenew(strings.NewReader(b)); err == nil {
			t.Errorf("accepted bad renew: %s", b)
		}
	}
}

func TestDecodeClaimReport(t *testing.T) {
	m, err := DecodeClaimReport(strings.NewReader(`{"worker":"w1","key":"` + testKey + `","claim_attempt":1,"state":"done","result":"QllURVM="}`))
	if err != nil {
		t.Fatalf("valid done report rejected: %v", err)
	}
	if m.State != ClaimDone || string(m.Result) != "BYTES" {
		t.Fatalf("decoded %+v", m)
	}
	if _, err := DecodeClaimReport(strings.NewReader(`{"worker":"w1","key":"` + testKey + `","claim_attempt":2,"state":"failed","error":"solver diverged"}`)); err != nil {
		t.Fatalf("valid failed report rejected: %v", err)
	}
	bad := []string{
		`{"worker":"w1","key":"` + testKey + `","claim_attempt":1,"state":"failed"}`,  // failed without error
		`{"worker":"w1","key":"` + testKey + `","claim_attempt":1,"state":"pending"}`, // non-terminal state
		`{"worker":"w1","key":"` + testKey + `","claim_attempt":1,"state":"nope"}`,    // unknown state
		`{"worker":"w1","key":"` + testKey + `","claim_attempt":0,"state":"done"}`,    // attempt < 1
	}
	for _, b := range bad {
		if _, err := DecodeClaimReport(strings.NewReader(b)); err == nil {
			t.Errorf("accepted bad report: %s", b)
		}
	}
}

func TestDecodeReplicateBatch(t *testing.T) {
	body := `{"records":[{"key":"` + testKey + `","label":"run/CG","state":"claimed","claimed_by":"w1","claim_expires_at":1700000000000,"claim_attempt":1}]}`
	m, err := DecodeReplicateBatch(strings.NewReader(body))
	if err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if len(m.Records) != 1 || m.Records[0].State != ClaimClaimed {
		t.Fatalf("decoded %+v", m)
	}
	bad := []string{
		`{"records":[{"key":"nope","label":"x","state":"pending","claim_attempt":0}]}`,           // bad key
		`{"records":[{"key":"` + testKey + `","label":"x","state":"limbo","claim_attempt":0}]}`,  // bad state
		`{"records":[{"key":"` + testKey + `","label":"","state":"pending","claim_attempt":0}]}`, // empty label
		`{"from":"co-a","records":[]}`, // retired from field
	}
	for _, b := range bad {
		if _, err := DecodeReplicateBatch(strings.NewReader(b)); err == nil {
			t.Errorf("accepted bad batch: %s", b)
		}
	}
}
