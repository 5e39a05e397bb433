package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testKey = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func TestResultStoreRoundTrip(t *testing.T) {
	s, err := OpenResults(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(testKey); ok || err != nil {
		t.Fatalf("Get on empty store = %v, %v", ok, err)
	}
	want := []byte("speedup table\n")
	if err := s.Put(testKey, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := s.Get(testKey)
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v, %v", got, ok, err)
	}
	hits, misses := s.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses, want 1/1", hits, misses)
	}
}

func TestResultStoreFanOutLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, testKey[:2], testKey)); err != nil {
		t.Fatalf("fan-out file missing: %v", err)
	}
	// Atomic write: no leftover temp files.
	entries, _ := os.ReadDir(filepath.Join(dir, testKey[:2]))
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestResultStorePutOnce: a second Put of a key already on disk leaves
// the first file in place instead of writing and renaming a copy.
func TestResultStorePutOnce(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenResults(dir)
	p := filepath.Join(dir, testKey[:2], testKey)
	if err := s.Put(testKey, []byte("once")); err != nil {
		t.Fatal(err)
	}
	first, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey, []byte("once")); err != nil {
		t.Fatal(err)
	}
	second, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(first, second) {
		t.Fatal("second Put replaced the result file")
	}
}

func TestResultStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenResults(dir)
	if err := s.Put(testKey, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(testKey)
	if err != nil || !ok || string(got) != "persisted" {
		t.Fatalf("Get after reopen = %q, %v, %v", got, ok, err)
	}
}

func TestResultStoreRejectsBadKeys(t *testing.T) {
	s, _ := OpenResults(t.TempDir())
	for _, key := range []string{
		"", "short", "../../etc/passwd", "ABCDEF0123456789", // uppercase
		"zzzzzzzzzzzzzzzz", strings.Repeat("a", 200),
		"0123456/89abcdef",
	} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
		if _, ok, _ := s.Get(key); ok {
			t.Errorf("Get(%q) reported a hit for an invalid key", key)
		}
	}
}
