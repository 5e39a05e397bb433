// Package store is slipd's durability layer: an append-only write-ahead
// journal of job state transitions and a disk-backed content-addressed
// result store. Both exist because every simulation in this repository is
// deterministic and side-effect-free — re-executing a lost job is always
// safe (at-least-once execution) and equal cache keys always name equal
// bytes (exactly-once results) — so a crash costs at most some repeated
// work, never a wrong answer.
package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// Record is one journal entry: a job entering a state. The first record
// for a job carries its spec; later transitions only need the id. Replay
// folds all records for a job into one (latest state, spec preserved).
//
// The claim fields serve the fleet's claim journal, where the same frame
// format records lease state: which worker holds the claim, when its
// lease expires (unix milliseconds), and the monotonic claim attempt.
// Claim transitions always write the full current lease state, so on
// fold the latest record's claim fields win verbatim — except the
// attempt counter, which never goes backwards.
type Record struct {
	Job      string          `json:"job"`
	Key      string          `json:"key,omitempty"`
	Label    string          `json:"label,omitempty"`
	State    string          `json:"state"`
	Error    string          `json:"error,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	Cached   bool            `json:"cached,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`

	// Admission identity: which tenant submitted the work and at which
	// priority class it queues. Set on the first record for a job (or
	// claim) and sticky across transitions, like the spec.
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority,omitempty"`
	// Campaign/Cell tie a job record to the campaign DAG cell it runs,
	// and mark a campaign's own records (Job == Campaign). Sticky.
	Campaign string `json:"campaign,omitempty"`
	Cell     string `json:"cell,omitempty"`

	ClaimedBy      string `json:"claimed_by,omitempty"`
	ClaimExpiresAt int64  `json:"claim_expires_at,omitempty"` // unix ms
	ClaimAttempt   int    `json:"claim_attempt,omitempty"`
}

// merge folds a later record over an earlier one for the same job: the
// newest state/error/attempts win, while the spec, key, and label stick
// from whichever record carried them (transition records omit the spec).
// ClaimedBy and ClaimExpiresAt are taken from the newest record verbatim
// (a re-pended claim legitimately clears them); ClaimAttempt only ever
// grows.
func merge(old, next Record) Record {
	if next.Spec == nil {
		next.Spec = old.Spec
	}
	if next.Key == "" {
		next.Key = old.Key
	}
	if next.Label == "" {
		next.Label = old.Label
	}
	if next.Tenant == "" {
		next.Tenant = old.Tenant
	}
	if next.Priority == "" {
		next.Priority = old.Priority
	}
	if next.Campaign == "" {
		next.Campaign = old.Campaign
	}
	if next.Cell == "" {
		next.Cell = old.Cell
	}
	if next.Attempts < old.Attempts {
		next.Attempts = old.Attempts
	}
	if next.ClaimAttempt < old.ClaimAttempt {
		next.ClaimAttempt = old.ClaimAttempt
	}
	return next
}

// DefaultSegmentBytes is the rotation threshold for journal segments.
const DefaultSegmentBytes = 4 << 20

// Journal is an append-only write-ahead log of Records, stored as
// length+checksum framed JSONL segments under one directory. Appends for
// terminal transitions are fsync'd; rotation compacts the full transition
// history down to one folded record per job and installs the compacted
// segment with an atomic rename.
//
// Rotation is amortized: it runs once the bytes appended since the last
// compaction exceed both maxSeg and what that compaction wrote, so the
// rewrite work stays linear in the bytes appended even when the folded
// state alone is larger than maxSeg. Open cannot tell a replayed
// segment's compacted prefix from the transitions appended after it, so
// it counts the whole segment as appended: a restart over a segment past
// maxSeg compacts once, on its first append, and amortizes from there.
type Journal struct {
	mu     sync.Mutex
	dir    string
	maxSeg int64

	f         *os.File // active segment, opened O_APPEND
	segSeq    int
	segBytes  int64
	compacted int64 // bytes the last compaction wrote (0 after Open)
	total     int64 // bytes across all live segments

	folded map[string]Record
	order  []string // job ids in first-seen order

	logf          func(format string, args ...any)
	dirSyncLogged bool // directory-fsync failures are logged once, not per compaction
}

// Open opens (or creates) the journal in dir, replays every segment, and
// returns the folded per-job records in first-seen order. A corrupt tail
// — truncated frame, bit-flipped checksum, interleaved garbage — is cut
// off at the last good record: the bad bytes are truncated away so later
// appends land on a clean replayable log. maxSegmentBytes <= 0 takes
// DefaultSegmentBytes.
func Open(dir string, maxSegmentBytes int64) (*Journal, []Record, error) {
	if maxSegmentBytes <= 0 {
		maxSegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	j := &Journal{dir: dir, maxSeg: maxSegmentBytes, folded: map[string]Record{}, logf: func(string, ...any) {}}

	segs, err := j.segments()
	if err != nil {
		return nil, nil, err
	}
	replayEnded := false
	kept := 0
	for _, seg := range segs {
		if replayEnded {
			// Records beyond a corruption are unreachable on replay, so
			// keeping later segments would only hide future appends.
			os.Remove(seg.path)
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, nil, err
		}
		recs, good := decodeFrames(data)
		for _, r := range recs {
			j.fold(r)
		}
		size := int64(len(data))
		if good < size {
			// Corrupt tail: cut it off at the last good record so later
			// appends land on a clean replayable log.
			if err := os.Truncate(seg.path, good); err != nil {
				return nil, nil, err
			}
			size = good
			replayEnded = true
		}
		j.total += size
		j.segSeq = seg.seq
		j.segBytes = size
		kept++
	}
	if kept == 0 {
		j.segSeq = 1
	}
	f, err := os.OpenFile(j.segPath(j.segSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j.f = f

	out := make([]Record, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, j.folded[id])
	}
	return j, out, nil
}

type segment struct {
	path string
	seq  int
	size int64
}

// segments lists the live segment files in sequence order.
func (j *Journal) segments() ([]segment, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		var seq int
		if _, err := fmt.Sscanf(name, "journal-%06d.wal", &seq); err != nil || name != fmt.Sprintf("journal-%06d.wal", seq) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segment{path: filepath.Join(j.dir, name), seq: seq, size: info.Size()})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].seq < segs[b].seq })
	return segs, nil
}

func (j *Journal) segPath(seq int) string {
	return filepath.Join(j.dir, fmt.Sprintf("journal-%06d.wal", seq))
}

func (j *Journal) fold(r Record) {
	if old, ok := j.folded[r.Job]; ok {
		j.folded[r.Job] = merge(old, r)
		return
	}
	j.folded[r.Job] = r
	j.order = append(j.order, r.Job)
}

// Append writes one record. sync forces the segment to disk — callers
// pass true on terminal-state transitions, where losing the record would
// trigger a (harmless but wasteful) re-execution on the next start.
func (j *Journal) Append(r Record, sync bool) error {
	frame := encodeFrame(r)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal is closed")
	}
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	j.segBytes += int64(len(frame))
	j.total += int64(len(frame))
	j.fold(r)
	if sync {
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	if j.segBytes-j.compacted > max(j.maxSeg, j.compacted) {
		return j.compactLocked()
	}
	return nil
}

// Compact rewrites the journal as one folded record per job — the whole
// transition history of a terminal job collapses to its final state —
// and atomically replaces the old segments.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal is closed")
	}
	return j.compactLocked()
}

func (j *Journal) compactLocked() error {
	next := j.segSeq + 1
	tmp := j.segPath(next) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var written int64
	for _, id := range j.order {
		frame := encodeFrame(j.folded[id])
		if _, err := f.Write(frame); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		written += int64(len(frame))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.segPath(next)); err != nil {
		os.Remove(tmp)
		return err
	}
	// A failed directory fsync leaves the rename at the filesystem's
	// mercy across power loss. The compaction itself is fine — the data
	// is in the new segment and the in-memory state must reflect that —
	// so finish the swap and surface the error to the caller, where it
	// lands in slipd_journal_errors_total.
	dirErr := syncDir(j.dir)
	if dirErr != nil && !j.dirSyncLogged {
		j.dirSyncLogged = true
		j.logf("journal: directory fsync failed (compacted segments may not survive power loss): %v", dirErr)
	}

	old := j.f
	oldSeq := j.segSeq
	nf, err := os.OpenFile(j.segPath(next), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	old.Close()
	// Every record up to oldSeq is folded into the new segment; the old
	// files are dead weight.
	for seq := oldSeq; seq > 0; seq-- {
		p := j.segPath(seq)
		if _, err := os.Stat(p); err != nil {
			break
		}
		os.Remove(p)
	}
	j.f = nf
	j.segSeq = next
	j.segBytes = written
	j.compacted = written
	j.total = written
	return dirErr
}

// SetLogf installs the journal's operational logger (default: discard).
func (j *Journal) SetLogf(logf func(format string, args ...any)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if logf != nil {
		j.logf = logf
	}
}

// Size reports the journal's on-disk byte count (all live segments).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Sync flushes the active segment to disk.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close syncs and closes the journal. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Framing: one record per line, "<crc32-hex8> <len> <json>\n". The
// checksum covers the JSON payload; the length lets a bit flip inside
// the payload be distinguished from a flip in the header. Anything that
// fails to parse ends the replay — the rest of the log is unreachable.

func encodeFrame(r Record) []byte {
	payload, err := json.Marshal(r)
	if err != nil {
		// Record is a plain struct of encodable fields; Marshal cannot
		// fail on it. Keep the journal append-only even if it somehow
		// does: frame an empty object rather than corrupting the log.
		payload = []byte("{}")
	}
	return []byte(fmt.Sprintf("%08x %d %s\n", crc32.ChecksumIEEE(payload), len(payload), payload))
}

// decodeFrames parses framed records from data, returning the records up
// to the first corruption and the byte offset of the end of the last good
// frame. It never panics, whatever the input.
func decodeFrames(data []byte) ([]Record, int64) {
	var recs []Record
	var good int64
	off := 0
	for off < len(data) {
		nl := indexByteFrom(data, off, '\n')
		if nl < 0 {
			break // truncated tail: no terminated frame
		}
		line := data[off:nl]
		r, ok := decodeFrame(line)
		if !ok {
			break
		}
		recs = append(recs, r)
		off = nl + 1
		good = int64(off)
	}
	return recs, good
}

func decodeFrame(line []byte) (Record, bool) {
	// "<8 hex> <decimal> <payload>"
	if len(line) < 11 || line[8] != ' ' {
		return Record{}, false
	}
	crcWant, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return Record{}, false
	}
	rest := line[9:]
	sp := indexByteFrom(rest, 0, ' ')
	if sp <= 0 {
		return Record{}, false
	}
	n, err := strconv.Atoi(string(rest[:sp]))
	if err != nil || n < 0 {
		return Record{}, false
	}
	payload := rest[sp+1:]
	if len(payload) != n {
		return Record{}, false
	}
	if crc32.ChecksumIEEE(payload) != uint32(crcWant) {
		return Record{}, false
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, false
	}
	if r.Job == "" {
		return Record{}, false
	}
	return r, true
}

func indexByteFrom(b []byte, from int, c byte) int {
	for i := from; i < len(b); i++ {
		if b[i] == c {
			return i
		}
	}
	return -1
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// The error is returned, not swallowed: some filesystems reject directory
// fsync, and the caller decides whether that degrades durability loudly
// (counted in slipd_journal_errors_total) or is tolerable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
