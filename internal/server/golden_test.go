package server

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenKinds name one golden pair per job kind under testdata/golden:
// <kind>.json is a test-scale spec and <kind>.txt the bytes it renders.
// `make golden` checks the slipsim and sweep CLIs against the same .txt
// files, and sweep's tests check that the Makefile's sweep invocations
// compile to the same keys as these specs, so TestGolden covers the code
// sweep runs. A change that moves any of these bytes regenerates the
// .txt files (go test -run TestGolden -update) and bumps CacheKeyVersion
// in the same change, so stale cached results stop matching.
var goldenKinds = []string{
	experiments.KindRun, experiments.KindStatic, experiments.KindDynamic, experiments.KindScaling,
	experiments.KindTokens, experiments.KindCharacterize, experiments.KindChaos, experiments.KindTasks,
}

// TestGolden executes each golden spec and compares the result bytes
// with its committed golden file.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every study at test scale")
	}
	s := New(Config{Workers: 1})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	for _, kind := range goldenKinds {
		t.Run(kind, func(t *testing.T) {
			body, err := os.ReadFile(filepath.Join("testdata", "golden", kind+".json"))
			if err != nil {
				t.Fatal(err)
			}
			c, _ := keyOf(t, string(body))
			checkGolden(t, s, c, kind)
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
