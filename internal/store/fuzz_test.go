package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// validJournalBytes frames a small set of records the way the journal
// writes them — the known-good prefix every fuzz case builds on.
func validJournalBytes() []byte {
	var buf bytes.Buffer
	spec := json.RawMessage(`{"kind":"run","kernel":"CG","nodes":4}`)
	for _, r := range []Record{
		{Job: "job-1", Key: "aa11bb22", State: "queued", Attempts: 1, Spec: spec},
		{Job: "job-1", State: "running", Attempts: 1},
		{Job: "job-2", Key: "cc33dd44", State: "queued", Attempts: 1, Spec: spec},
		{Job: "job-1", State: "done", Attempts: 1},
	} {
		buf.Write(encodeFrame(r))
	}
	return buf.Bytes()
}

// FuzzJournalReplay appends arbitrary bytes — truncated frames,
// bit-flipped checksums, interleaved garbage — after a valid journal
// prefix. The contract: replay never panics, always recovers at least
// the jobs framed in the valid prefix, and leaves the journal usable
// for further appends.
func FuzzJournalReplay(f *testing.F) {
	valid := validJournalBytes()
	f.Add([]byte{})
	f.Add(valid[:len(valid)-7])                 // truncated tail
	f.Add([]byte("00000000 2 {}\n"))            // checksum mismatch
	f.Add([]byte("garbage\nmore garbage"))      // no framing at all
	f.Add([]byte{0x00, 0xff, 0x0a, 0x41, 0x0a}) // binary noise with newlines
	f.Add(encodeFrame(Record{Job: "job-9", State: "failed", Error: "x"}))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, "journal-000001.wal")
		if err := os.WriteFile(seg, append(append([]byte(nil), valid...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("Open errored on corrupt (not broken) input: %v", err)
		}
		// The valid prefix is framed and newline-terminated, so its jobs
		// must survive whatever follows.
		seen := map[string]bool{}
		for _, r := range recs {
			seen[r.Job] = true
		}
		for _, want := range []string{"job-1", "job-2"} {
			if !seen[want] {
				t.Fatalf("replay lost %s from the valid prefix (tail %q)", want, tail)
			}
		}
		// Post-recovery appends must replay on the next open.
		if err := j.Append(Record{Job: "job-after", State: "queued", Attempts: 1}, true); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		j.Close()
		j2, recs2, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer j2.Close()
		found := false
		for _, r := range recs2 {
			if r.Job == "job-after" {
				found = true
			}
		}
		if !found {
			t.Fatalf("append after corrupt replay did not survive (tail %q)", tail)
		}
	})
}
