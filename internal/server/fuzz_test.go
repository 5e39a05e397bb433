package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseSpec drives the full submit-side parse/validate/hash pipeline
// with arbitrary bodies. The contract under fuzz: malformed JSON and
// absurd specs (huge node or token counts, wild rates) must return an
// error — never panic, and never produce a spec that compile accepts but
// cacheKey cannot hash. A spec that compiles must recompile from its own
// normalized form to the same key: the worker's version-skew check,
// campaign replay and crash requeue all key the normalized spec.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		runSpecBody,
		`{"kind":"static","kernels":["CG","MG"],"nodes":4}`,
		`{"kind":"scaling","kernel":"CG","node_counts":[2,4,8]}`,
		`{"kind":"scaling","kernel":"CG","node_counts":[100]}`,
		`{"kind":"tokens","kernel":"CG","token_counts":[0,1,2]}`,
		`{"kind":"tokens","kernel":"CG","token_counts":[9999999]}`,
		`{"kind":"chaos","kernels":["CG"],"faults":{"seed":7,"rates":[0.5]}}`,
		`{"kind":"tasks"}`,
		`{"kind":"tasks","node_counts":[2,4],"cutoffs":[2,4]}`,
		`{"kind":"tasks","cutoffs":[99]}`,
		`{"kind":"tasks","node_counts":[0]}`,
		`{"kind":"tasks","kernel":"CG"}`,
		`{"kind":"tasks","faults":{"seed":1,"rate":0.5}}`,
		`{"kind":"run","kernel":"CG","faults":{"seed":1,"rate":0.3,"classes":["token"]}}`,
		`{"kind":"run","kernel":"CG","tokens":-5}`,
		`{"kind":"run","kernel":"CG","nodes":1000000000}`,
		`{"kind":"run","kernel":"CG","params":{"nodes":64}}`,
		`{"kind":"static","kernels":["mg"," CG","CG"," "]}`,
		`{"kind":"tasks","node_counts":[4,2],"cutoffs":[4,2]}`,
		`{"kind":"chaos","faults":{"seed":7,"rates":[0.5,0.5,0],"classes":["token","mem","token"]}}`,
		`{"kind":"dynamic","self_invalidate":true}`,
		`{"kind":"run","kernel":"CG"} trailing`,
		`{"faults":{"rate":1e308}}`,
		`not json`,
		`{}`,
		`[]`,
		`{"kind":`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := decodeSpec(strings.NewReader(body))
		if err != nil {
			return // rejected cleanly
		}
		c, err := compile(spec)
		if err != nil {
			return // rejected cleanly
		}
		key, err := c.cacheKey()
		if err != nil {
			t.Fatalf("compiled spec failed to hash: %v (body %q)", err, body)
		}
		norm, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatalf("normalized spec failed to marshal: %v (body %q)", err, body)
		}
		spec2, err := decodeSpec(bytes.NewReader(norm))
		if err != nil {
			t.Fatalf("normalized spec %s failed to decode: %v (body %q)", norm, err, body)
		}
		c2, err := compile(spec2)
		if err != nil {
			t.Fatalf("normalized spec %s failed to recompile: %v (body %q)", norm, err, body)
		}
		if key2, err := c2.cacheKey(); err != nil || key2 != key {
			t.Fatalf("normalized spec %s recompiled to key %s (%v), want %s (body %q)", norm, key2, err, key, body)
		}
	})
}

// FuzzCampaignSpec drives the campaign decode/compile pipeline with
// arbitrary bodies. The contract: malformed edges, cycles, bad ids and
// absurd cell specs must return an error — never panic — and a spec
// that compiles must recompile from its own normalized form (the shape
// the journal replays after a crash).
func FuzzCampaignSpec(f *testing.F) {
	seeds := []string{
		`{"cells":[{"id":"a","spec":{"kind":"run","kernel":"CG","nodes":4}}]}`,
		`{"name":"sweep","policy":"halt","priority":"batch","cells":[{"id":"a","spec":{"kind":"run","kernel":"CG"}},{"id":"b","after":["a"],"spec":{"kind":"run","kernel":"MG"}}]}`,
		`{"policy":"continue","cells":[{"id":"a","after":["b"],"spec":{"kind":"run","kernel":"CG"}},{"id":"b","after":["a"],"spec":{"kind":"run","kernel":"CG"}}]}`,
		`{"cells":[{"id":"a","after":["a"],"spec":{"kind":"run","kernel":"CG"}}]}`,
		`{"cells":[{"id":"a","after":["ghost"],"spec":{"kind":"run","kernel":"CG"}}]}`,
		`{"cells":[{"id":"a/b","spec":{"kind":"run","kernel":"CG"}}]}`,
		`{"cells":[{"id":"a","spec":{"kind":"run","kernel":"CG"}},{"id":"a","spec":{"kind":"run","kernel":"CG"}}]}`,
		`{"cells":[{"id":"a","after":["b","b"],"spec":{"kind":"run","kernel":"CG"}},{"id":"b","spec":{"kind":"run","kernel":"CG"}}]}`,
		`{"policy":"explode","cells":[{"id":"a","spec":{"kind":"run","kernel":"CG"}}]}`,
		`{"cells":[{"id":"a","spec":{"kind":"run","kernel":"CG","nodes":1000000}}]}`,
		`{"cells":[]}`,
		`{"cells":[{"id":"a","spec":{"kind":"run","kernel":"CG"}}]} trailing`,
		`{"cellz":[]}`,
		`not json`,
		`{}`,
		`[]`,
		`{"cells":`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		cs, err := decodeCampaignSpec(strings.NewReader(body))
		if err != nil {
			return // rejected cleanly
		}
		cc, err := compileCampaign(cs)
		if err != nil {
			return // rejected cleanly
		}
		// The normalized spec is what the journal stores; replay must be
		// able to recompile it verbatim.
		norm := campaignJSON(cc.spec)
		if norm == nil {
			t.Fatalf("compiled campaign failed to marshal (body %q)", body)
		}
		cs2, err := decodeCampaignSpec(strings.NewReader(string(norm)))
		if err != nil {
			t.Fatalf("normalized campaign failed to decode: %v (body %q)", err, body)
		}
		if _, err := compileCampaign(cs2); err != nil {
			t.Fatalf("normalized campaign failed to recompile: %v (body %q)", err, body)
		}
	})
}
