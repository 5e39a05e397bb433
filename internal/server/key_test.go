package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/machine"
)

// keyOf decodes, compiles and keys a spec body.
func keyOf(t *testing.T, body string) (*compiledSpec, string) {
	t.Helper()
	spec, err := decodeSpec(strings.NewReader(body))
	if err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	c, err := compile(spec)
	if err != nil {
		t.Fatalf("compile %s: %v", body, err)
	}
	key, err := c.cacheKey()
	if err != nil {
		t.Fatalf("key %s: %v", body, err)
	}
	return c, key
}

// paramsJSON renders Table 1 on nodes CMPs, optionally on the mesh.
func paramsJSON(t *testing.T, nodes int, mesh bool) string {
	t.Helper()
	p := machine.DefaultParams()
	p.Nodes = nodes
	if mesh {
		p.Topology = machine.TopoMesh2D
	}
	data, err := p.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCacheKeyListOrder: scaling and tokens render their count lists in
// submission order with the first entry as the base row, so reordered
// lists are different tables and must be different keys.
func TestCacheKeyListOrder(t *testing.T) {
	for _, pair := range [][2]string{
		{`{"kind":"scaling","kernel":"CG","node_counts":[2,4]}`, `{"kind":"scaling","kernel":"CG","node_counts":[4,2]}`},
		{`{"kind":"tokens","kernel":"MG","token_counts":[0,1]}`, `{"kind":"tokens","kernel":"MG","token_counts":[1,0]}`},
	} {
		_, a := keyOf(t, pair[0])
		_, b := keyOf(t, pair[1])
		if a == b {
			t.Errorf("%s and %s share key %s", pair[0], pair[1], a)
		}
	}
}

// TestCacheKeyTasksOrder: the tasks runner sorts both axes, so either
// order is one key and one table.
func TestCacheKeyTasksOrder(t *testing.T) {
	c, reordered := keyOf(t, `{"kind":"tasks","node_counts":[4,2],"cutoffs":[4,2],"scale":"test"}`)
	_, golden := keyOf(t, `{"kind":"tasks","node_counts":[2,4],"cutoffs":[2,4],"scale":"test"}`)
	if reordered != golden {
		t.Fatalf("reordered tasks lists changed the key: %s vs %s", reordered, golden)
	}
	if testing.Short() {
		return
	}
	s := New(Config{Workers: 1})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	checkGolden(t, s, c, KindTasks)
}

// TestCacheKeySpellingVariants: specs that normalize to the same
// simulation share a key.
func TestCacheKeySpellingVariants(t *testing.T) {
	for _, pair := range [][2]string{
		{`{"kind":"run","kernel":"CG","nodes":4}`, `{"kind":"run","kernel":"cg","nodes":4}`},
		{`{"kind":"run","kernel":"CG","nodes":4}`,
			`{"kind":"run","kernel":"CG","nodes":4,"mode":"slipstream","sync":"global_sync","tokens":0,"sched":"static",` +
				`"scale":"test","verify":true,"priority":"batch","params":` + paramsJSON(t, 4, false) + `}`},
		{`{"kind":"static","kernels":["mg"," CG","CG"]}`, `{"kind":"static","kernels":["CG","MG"]}`},
		{`{"kind":"static","kernels":[" "]}`, `{"kind":"static"}`},
		{`{"kind":"scaling","kernel":"CG","node_counts":[2,4],"params":` + paramsJSON(t, 16, false) + `}`,
			`{"kind":"scaling","kernel":"cg","node_counts":[2,4]}`},
	} {
		_, a := keyOf(t, pair[0])
		_, b := keyOf(t, pair[1])
		if a != b {
			t.Errorf("%s and %s have different keys", pair[0], pair[1])
		}
	}
}

// TestCacheKeyPinned pins one spec's key. If this fails, the key scheme
// or the normalized spec changed: bump CacheKeyVersion so results cached
// under the old scheme stop matching, then record the new value here.
func TestCacheKeyPinned(t *testing.T) {
	const want = "6ed329d6b06e50f3de3c8f064e2a28d02f1dcb52f749a8aa410b1a727fdccc80"
	if _, got := keyOf(t, runSpecBody); got != want {
		t.Fatalf("key of %s = %s, want %s (bump CacheKeyVersion and record the new key)", runSpecBody, got, want)
	}
}

// TestIgnoredMachineSettingsRefused: kinds that build their own Table-1
// machines refuse any other machine, and kinds that never self-invalidate
// refuse self_invalidate, naming the field. A Table-1 params block is
// accepted, dropped from the normalized spec, and the spec recompiles to
// the same key.
func TestIgnoredMachineSettingsRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	mesh := paramsJSON(t, 4, true)
	for _, tc := range []struct{ body, field string }{
		{`{"kind":"scaling","kernel":"CG","node_counts":[2,4],"nodes":4,"params":` + mesh + `}`, "params"},
		{`{"kind":"tokens","kernel":"MG","token_counts":[0,1],"nodes":4,"params":` + mesh + `}`, "params"},
		{`{"kind":"characterize","nodes":4,"params":` + mesh + `}`, "params"},
		{`{"kind":"scaling","kernel":"CG","node_counts":[2,4],"self_invalidate":true}`, "self_invalidate"},
		{`{"kind":"tokens","kernel":"MG","token_counts":[0,1],"self_invalidate":true}`, "self_invalidate"},
		{`{"kind":"characterize","self_invalidate":true}`, "self_invalidate"},
		{`{"kind":"dynamic","self_invalidate":true}`, "self_invalidate"},
	} {
		if _, code := submit(t, ts, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s → %d, want 400", tc.body, code)
		}
		spec, err := decodeSpec(strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compile(spec); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %v does not name %s", tc.body, err, tc.field)
		}
	}

	c, key := keyOf(t, `{"kind":"scaling","kernel":"CG","node_counts":[4,2],"nodes":8,"params":`+paramsJSON(t, 8, false)+`}`)
	if c.spec.Params != nil {
		t.Fatalf("normalized scaling spec kept params: %s", c.spec.Params)
	}
	norm, err := json.Marshal(c.spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, again := keyOf(t, string(norm)); again != key {
		t.Fatalf("normalized scaling spec %s recompiled to a different key", norm)
	}
}
