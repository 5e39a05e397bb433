package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzClaimWire throws arbitrary bytes at the claim-path decoders:
// claim long-polls, grants, renewals, terminal reports, and peer
// replication batches. The decoders sit on the fleet's trust boundary —
// a worker can be version-skewed, misconfigured, or malicious, and a
// worker in a multi-coordinator fleet can't tell a healthy coordinator
// from a compromised or skewed one — so they must never panic, and
// anything they accept must survive re-encode → re-decode with the same
// validated meaning.
func FuzzClaimWire(f *testing.F) {
	key := strings.Repeat("ab", 32)
	f.Add([]byte(`{"worker":"w1","wait_ms":1500}`))
	f.Add([]byte(`{"key":"` + key + `","label":"run/CG","spec":{"kind":"run"},"claim_attempt":1,"lease_ms":10000}`))
	f.Add([]byte(`{"worker":"w1","key":"` + key + `","claim_attempt":2}`))
	f.Add([]byte(`{"worker":"w1","key":"` + key + `","claim_attempt":1,"state":"done","result":"QllURVM="}`))
	f.Add([]byte(`{"worker":"w1","key":"` + key + `","claim_attempt":1,"state":"failed","error":"diverged"}`))
	f.Add([]byte(`{"from":"co-a","records":[{"key":"` + key + `","label":"l","state":"claimed","claimed_by":"w1","claim_expires_at":1700000000000,"claim_attempt":1}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(strings.Repeat("{", 1000)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeClaimRequest(bytes.NewReader(data)); err == nil {
			if m.Validate() != nil {
				t.Fatalf("DecodeClaimRequest returned an invalid message: %+v", m)
			}
			b, _ := json.Marshal(m)
			m2, err := DecodeClaimRequest(bytes.NewReader(b))
			if err != nil || m2 != m {
				t.Fatalf("claim request round-trip: %+v → %+v (%v)", m, m2, err)
			}
		}
		if g, err := DecodeClaimGrant(bytes.NewReader(data)); err == nil {
			if g.Validate() != nil {
				t.Fatalf("DecodeClaimGrant returned an invalid message: %+v", g)
			}
			b, _ := json.Marshal(g)
			g2, err := DecodeClaimGrant(bytes.NewReader(b))
			if err != nil || g2.Key != g.Key || g2.Attempt != g.Attempt || g2.LeaseMs != g.LeaseMs {
				t.Fatalf("grant round-trip: %+v → %+v (%v)", g, g2, err)
			}
		}
		if m, err := DecodeClaimRenew(bytes.NewReader(data)); err == nil {
			if m.Validate() != nil {
				t.Fatalf("DecodeClaimRenew returned an invalid message: %+v", m)
			}
			b, _ := json.Marshal(m)
			m2, err := DecodeClaimRenew(bytes.NewReader(b))
			if err != nil || m2 != m {
				t.Fatalf("renew round-trip: %+v → %+v (%v)", m, m2, err)
			}
		}
		if m, err := DecodeClaimReport(bytes.NewReader(data)); err == nil {
			if m.Validate() != nil {
				t.Fatalf("DecodeClaimReport returned an invalid message: %+v", m)
			}
			b, _ := json.Marshal(m)
			m2, err := DecodeClaimReport(bytes.NewReader(b))
			if err != nil || m2.Key != m.Key || m2.State != m.State || !bytes.Equal(m2.Result, m.Result) {
				t.Fatalf("report round-trip: %+v → %+v (%v)", m, m2, err)
			}
		}
		if m, err := DecodeReplicateBatch(bytes.NewReader(data)); err == nil {
			if m.Validate() != nil {
				t.Fatalf("DecodeReplicateBatch returned an invalid message: %+v", m)
			}
			b, _ := json.Marshal(m)
			m2, err := DecodeReplicateBatch(bytes.NewReader(b))
			if err != nil || m2.From != m.From || len(m2.Records) != len(m.Records) {
				t.Fatalf("batch round-trip: %+v → %+v (%v)", m, m2, err)
			}
		}
	})
}
