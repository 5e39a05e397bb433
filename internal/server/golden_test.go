package server

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenSpecs are one test-scale spec per job kind. Their rendered bytes
// are pinned in testdata/golden/<kind>.txt, and `make golden` checks the
// slipsim and sweep CLIs against the same files. A change that moves any
// of these bytes regenerates the file (go test -run TestGolden -update)
// and bumps CacheKeyVersion in the same change, so stale cached results
// stop matching.
var goldenSpecs = []struct{ kind, body string }{
	{KindRun, `{"kind":"run","kernel":"CG","nodes":4,"scale":"test"}`},
	{KindStatic, `{"kind":"static","nodes":4,"scale":"test"}`},
	{KindDynamic, `{"kind":"dynamic","nodes":4,"scale":"test"}`},
	{KindScaling, `{"kind":"scaling","kernel":"CG","node_counts":[2,4],"scale":"test"}`},
	{KindTokens, `{"kind":"tokens","kernel":"MG","nodes":4,"token_counts":[0,1],"scale":"test"}`},
	{KindCharacterize, `{"kind":"characterize","nodes":2}`},
	{KindChaos, `{"kind":"chaos","kernels":["CG"],"nodes":4,"scale":"test","faults":{"seed":7,"rates":[0.5]}}`},
	{KindTasks, `{"kind":"tasks","node_counts":[2,4],"cutoffs":[2,4],"scale":"test"}`},
}

// TestGolden executes each golden spec and compares the result bytes
// with its committed golden file.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every study at test scale")
	}
	s := New(Config{Workers: 1})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	for _, g := range goldenSpecs {
		t.Run(g.kind, func(t *testing.T) {
			c, _ := keyOf(t, g.body)
			checkGolden(t, s, c, g.kind)
		})
	}
}

// checkGolden executes c and compares its bytes with the golden file of
// kind (with -update, rewrites the file instead).
func checkGolden(t *testing.T, s *Server, c *compiledSpec, kind string) {
	t.Helper()
	got, err := s.execute(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", kind+".txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s result differs from %s:\n--- got\n%s\n--- want\n%s", kind, path, got, want)
	}
}
