package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openT(t *testing.T, dir string, maxSeg int64) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(dir, maxSeg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

func mustAppend(t *testing.T, j *Journal, r Record, sync bool) {
	t.Helper()
	if err := j.Append(r, sync); err != nil {
		t.Fatalf("Append(%+v): %v", r, err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs := openT(t, dir, 0)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	spec := json.RawMessage(`{"kind":"run","kernel":"CG"}`)
	mustAppend(t, j, Record{Job: "job-1", Key: "aa11", State: "queued", Attempts: 1, Spec: spec}, false)
	mustAppend(t, j, Record{Job: "job-2", Key: "bb22", State: "queued", Attempts: 1, Spec: spec}, false)
	mustAppend(t, j, Record{Job: "job-1", State: "running", Attempts: 1}, false)
	mustAppend(t, j, Record{Job: "job-1", State: "done", Attempts: 1}, true)
	mustAppend(t, j, Record{Job: "job-2", State: "failed", Error: "boom", Attempts: 1}, true)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, recs = openT(t, dir, 0)
	if len(recs) != 2 {
		t.Fatalf("replayed %d folded records, want 2: %+v", len(recs), recs)
	}
	// First-seen order, latest state, spec and key preserved through
	// transition records that omitted them.
	if recs[0].Job != "job-1" || recs[0].State != "done" || recs[0].Key != "aa11" || string(recs[0].Spec) != string(spec) {
		t.Fatalf("job-1 folded wrong: %+v", recs[0])
	}
	if recs[1].Job != "job-2" || recs[1].State != "failed" || recs[1].Error != "boom" {
		t.Fatalf("job-2 folded wrong: %+v", recs[1])
	}
}

func TestJournalTruncatedTailRecovers(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 0)
	mustAppend(t, j, Record{Job: "job-1", State: "queued", Attempts: 1}, false)
	mustAppend(t, j, Record{Job: "job-2", State: "queued", Attempts: 1}, true)
	j.Close()

	seg := filepath.Join(dir, "journal-000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-frame: the second record loses its tail.
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs := openT(t, dir, 0)
	if len(recs) != 1 || recs[0].Job != "job-1" {
		t.Fatalf("replay after truncation = %+v, want just job-1", recs)
	}
	// The corrupt tail was cut off, so a new append replays cleanly.
	mustAppend(t, j2, Record{Job: "job-3", State: "queued", Attempts: 1}, true)
	j2.Close()
	_, recs = openT(t, dir, 0)
	if len(recs) != 2 || recs[1].Job != "job-3" {
		t.Fatalf("replay after post-truncation append = %+v, want job-1 and job-3", recs)
	}
}

func TestJournalChecksumFlipStopsAtLastGood(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 0)
	mustAppend(t, j, Record{Job: "job-1", State: "queued", Attempts: 1}, false)
	mustAppend(t, j, Record{Job: "job-2", State: "queued", Attempts: 1}, false)
	mustAppend(t, j, Record{Job: "job-3", State: "queued", Attempts: 1}, true)
	j.Close()

	seg := filepath.Join(dir, "journal-000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle record.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs := openT(t, dir, 0)
	if len(recs) == 0 || len(recs) >= 3 {
		t.Fatalf("replay after bit flip = %d records, want 1 or 2 (stop at corruption)", len(recs))
	}
	for _, r := range recs {
		if r.Job == "job-3" {
			t.Fatalf("record past the corruption replayed: %+v", recs)
		}
	}
}

func TestJournalInterleavedGarbage(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 0)
	mustAppend(t, j, Record{Job: "job-1", State: "done", Attempts: 1}, true)
	j.Close()

	seg := filepath.Join(dir, "journal-000001.wal")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not a frame at all\n\x00\x01\x02garbage")
	f.Close()

	_, recs := openT(t, dir, 0)
	if len(recs) != 1 || recs[0].Job != "job-1" {
		t.Fatalf("replay with trailing garbage = %+v, want just job-1", recs)
	}
}

func TestJournalRotationCompacts(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 512) // tiny segments force rotation
	spec := json.RawMessage(`{"kind":"run","kernel":"CG","nodes":4}`)
	mustAppend(t, j, Record{Job: "job-1", Key: "cc33", State: "queued", Attempts: 1, Spec: spec}, false)
	for i := 0; i < 50; i++ {
		st := "running"
		if i%2 == 1 {
			st = "queued"
		}
		mustAppend(t, j, Record{Job: "job-1", State: st, Attempts: 1}, false)
	}
	mustAppend(t, j, Record{Job: "job-1", State: "done", Attempts: 1}, true)

	// Rotation compacted 50+ transitions to one folded record; the
	// on-disk size must be far below the raw transition volume.
	if sz := j.Size(); sz > 1024 {
		t.Fatalf("journal size %d after compaction, want <= 1024", sz)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries after rotation, want exactly 1 live segment: %v", len(entries), entries)
	}
	j.Close()

	_, recs := openT(t, dir, 0)
	if len(recs) != 1 || recs[0].State != "done" || string(recs[0].Spec) != string(spec) || recs[0].Key != "cc33" {
		t.Fatalf("replay after rotation = %+v, want folded done record with spec and key", recs)
	}
}

// TestJournalCompactionAmortized: once the folded state outgrows maxSeg,
// compaction must not rewrite the journal on every append. Appending
// unique jobs until the live state is 10× maxSeg compacts at most once
// per maxSeg appended; a reopened journal keeps that bound over another
// 10× maxSeg instead of compacting on its first appends, and replay
// returns every job.
func TestJournalCompactionAmortized(t *testing.T) {
	const maxSeg = 4096
	dir := t.TempDir()
	spec := json.RawMessage(`{"kind":"run","kernel":"CG","nodes":4,"params":"` + strings.Repeat("x", 160) + `"}`)
	jobs := 0
	var live int64
	for round := 1; round <= 2; round++ {
		j, recs := openT(t, dir, maxSeg)
		if len(recs) != jobs {
			t.Fatalf("round %d: replay returned %d jobs, want %d", round, len(recs), jobs)
		}
		startSeq := j.segSeq
		var appended int64
		for live < int64(round)*10*maxSeg {
			jobs++
			r := Record{Job: fmt.Sprintf("job-%d", jobs), Key: "dd44", State: "done", Attempts: 1, Spec: spec}
			n := int64(len(encodeFrame(r)))
			mustAppend(t, j, r, false)
			appended += n
			live += n
		}
		compactions := int64(j.segSeq - startSeq)
		if bound := appended/maxSeg + 1; compactions > bound {
			t.Errorf("round %d: %d compactions for %d bytes appended, want <= %d", round, compactions, appended, bound)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	_, recs := openT(t, dir, maxSeg)
	if len(recs) != jobs {
		t.Fatalf("final replay returned %d jobs, want %d", len(recs), jobs)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("job-%d", i+1); r.Job != want || r.State != "done" || string(r.Spec) != string(spec) {
			t.Fatalf("replayed record %d = %+v, want %s done with its spec", i, r, want)
		}
	}
}

// TestJournalOpenCompactsLongSegment: a restart over a segment past
// maxSeg compacts inside Open, leaving one compacted segment, so the first
// Append after the restart (in slipd, a request holding the server lock)
// does not pay for the rewrite.
func TestJournalOpenCompactsLongSegment(t *testing.T) {
	const maxSeg = 4096
	dir := t.TempDir()
	j, _ := openT(t, dir, 1<<20) // a segment limit the history stays under
	for i := 0; i < 200; i++ {
		mustAppend(t, j, Record{Job: fmt.Sprintf("job-%d", i%4), State: "running", Attempts: 1}, false)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := j.segments(); len(segs) != 1 || segs[0].size <= maxSeg {
		t.Fatalf("setup: want one segment past %d bytes, have %+v", maxSeg, segs)
	}

	j, recs := openT(t, dir, maxSeg)
	if len(recs) != 4 {
		t.Fatalf("replay returned %d jobs, want 4", len(recs))
	}
	segs, err := j.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].seq != j.segSeq || j.compacted == 0 || segs[0].size != j.compacted {
		t.Fatalf("after Open: segments %+v, compacted %d; want one segment of the compacted bytes", segs, j.compacted)
	}
	seq := j.segSeq
	mustAppend(t, j, Record{Job: "job-0", State: "done", Attempts: 1}, true)
	if j.segSeq != seq {
		t.Fatalf("the first Append after Open compacted (segment %d -> %d)", seq, j.segSeq)
	}
}

// TestJournalReopenKeepsCompacting: a journal restarted often, each run
// appending less than maxSeg, must still compact. This is the claims
// journal's life: every lease renewal appends a record for a claim the
// fold already holds. Across 60 runs that each add two claims and renew
// about 2 KiB, the journal stays within 2× max(maxSeg, live bytes).
func TestJournalReopenKeepsCompacting(t *testing.T) {
	const maxSeg = 4096
	dir := t.TempDir()
	spec := json.RawMessage(`{"kind":"run","kernel":"CG","nodes":4,"params":"` + strings.Repeat("x", 160) + `"}`)
	claims := 0
	renewals := 0
	for run := 1; run <= 60; run++ {
		j, recs := openT(t, dir, maxSeg)
		if len(recs) != claims {
			t.Fatalf("run %d: replay returned %d claims, want %d", run, len(recs), claims)
		}
		for k := 0; k < 2; k++ {
			claims++
			mustAppend(t, j, Record{Job: fmt.Sprintf("claim-%d", claims), State: "pending", Spec: spec}, true)
		}
		var appended int64
		for appended < 2048 {
			renewals++
			r := Record{Job: fmt.Sprintf("claim-%d", renewals%claims+1), State: "claimed",
				ClaimedBy: "worker-1", ClaimExpiresAt: 1_700_000_000_000 + int64(renewals), ClaimAttempt: 1}
			appended += int64(len(encodeFrame(r)))
			mustAppend(t, j, r, false)
		}
		var live int64
		for _, id := range j.order {
			live += int64(len(encodeFrame(j.folded[id])))
		}
		if size := j.Size(); size > 2*max(maxSeg, live) {
			t.Fatalf("run %d: journal holds %d bytes for %d live bytes, want <= %d", run, size, live, 2*max(maxSeg, live))
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJournalExplicitCompact(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 0)
	for i := 0; i < 10; i++ {
		mustAppend(t, j, Record{Job: "job-1", State: "running", Attempts: 1}, false)
	}
	before := j.Size()
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if after := j.Size(); after >= before {
		t.Fatalf("Compact did not shrink the journal: %d -> %d", before, after)
	}
	_, recs := openT(t, dir, 0)
	if len(recs) != 1 {
		t.Fatalf("replay after compact = %+v", recs)
	}
}

func TestJournalClosedAppendFails(t *testing.T) {
	j, _ := openT(t, t.TempDir(), 0)
	j.Close()
	if err := j.Append(Record{Job: "job-1", State: "queued"}, false); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func TestMergeKeepsSpecAndMaxAttempts(t *testing.T) {
	spec := json.RawMessage(`{"kind":"run"}`)
	got := merge(
		Record{Job: "j", Key: "k", State: "queued", Attempts: 3, Spec: spec},
		Record{Job: "j", State: "running", Attempts: 1},
	)
	if got.State != "running" || got.Attempts != 3 || got.Key != "k" || string(got.Spec) != string(spec) {
		t.Fatalf("merge = %+v", got)
	}
}

func TestMergeClaimFields(t *testing.T) {
	// Claim transitions write the full lease state each time: the newest
	// record's holder and expiry win verbatim — a re-pended claim
	// legitimately clears them — while the attempt counter never goes
	// backwards.
	got := merge(
		Record{Job: "claim-1", Key: "k", Label: "run/CG", State: "claimed", ClaimedBy: "w1", ClaimExpiresAt: 1700, ClaimAttempt: 2},
		Record{Job: "claim-1", State: "pending"},
	)
	if got.ClaimedBy != "" || got.ClaimExpiresAt != 0 {
		t.Fatalf("re-pend did not clear the lease: %+v", got)
	}
	if got.ClaimAttempt != 2 || got.Label != "run/CG" || got.Key != "k" {
		t.Fatalf("merge dropped sticky claim fields: %+v", got)
	}
}

func TestJournalClaimLifecycleFolds(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 0)
	spec := json.RawMessage(`{"kind":"run"}`)
	// One claim's full life: pending → claimed → lease expired (back to
	// pending) → reclaimed at a higher attempt → done.
	mustAppend(t, j, Record{Job: "claim-1", Key: "k1", Label: "run/CG", State: "pending", Spec: spec}, false)
	mustAppend(t, j, Record{Job: "claim-1", Key: "k1", State: "claimed", ClaimedBy: "w1", ClaimExpiresAt: 1700, ClaimAttempt: 1}, false)
	mustAppend(t, j, Record{Job: "claim-1", Key: "k1", State: "pending", ClaimAttempt: 1}, false)
	mustAppend(t, j, Record{Job: "claim-1", Key: "k1", State: "claimed", ClaimedBy: "w2", ClaimExpiresAt: 3400, ClaimAttempt: 2}, false)
	mustAppend(t, j, Record{Job: "claim-1", Key: "k1", State: "done", ClaimAttempt: 2}, true)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, recs := openT(t, dir, 0)
	if len(recs) != 1 {
		t.Fatalf("replayed %d folded records, want 1: %+v", len(recs), recs)
	}
	r := recs[0]
	if r.State != "done" || r.ClaimAttempt != 2 || r.ClaimedBy != "" || r.ClaimExpiresAt != 0 {
		t.Fatalf("claim lifecycle folded wrong: %+v", r)
	}
	if r.Label != "run/CG" || string(r.Spec) != string(spec) {
		t.Fatalf("fold dropped label or spec: %+v", r)
	}
}
