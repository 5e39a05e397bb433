package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// ResultStore is a disk-backed content-addressed result store: one file
// per cache key under a sha256 fan-out directory (results/ab/abcd…).
// Writes are atomic (temp file + fsync + rename), so a crash mid-write
// leaves either the complete result or nothing — never torn bytes. The
// in-memory LRU in front of it may evict freely: eviction drops bytes
// from RAM, not from disk.
type ResultStore struct {
	dir          string
	hits, misses atomic.Uint64
}

// OpenResults opens (or creates) the result store rooted at dir.
func OpenResults(dir string) (*ResultStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &ResultStore{dir: dir}, nil
}

// ValidKey reports whether key is usable as a store filename: lowercase
// hex, bounded length. Server cache keys are sha256 hex and always pass;
// the check keeps path metacharacters from crafted keys out of the
// filesystem.
func ValidKey(key string) bool {
	if len(key) < 8 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *ResultStore) path(key string) (string, error) {
	if !ValidKey(key) {
		return "", fmt.Errorf("invalid result key %q", key)
	}
	return filepath.Join(s.dir, key[:2], key), nil
}

// Put stores the bytes for key atomically. A key already on disk
// returns at once: content addressing means the file holds these very
// bytes, and temp+fsync+rename means a present file is complete.
func (s *ResultStore) Put(key string, val []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if _, err := os.Stat(p); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+key+".tmp-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(val); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return err
	}
	return syncDir(filepath.Dir(p))
}

// Get loads the bytes for key. The bool reports presence; an error means
// the store itself misbehaved (an absent key is not an error).
func (s *ResultStore) Get(key string) ([]byte, bool, error) {
	p, err := s.path(key)
	if err != nil {
		s.misses.Add(1)
		return nil, false, err
	}
	b, err := os.ReadFile(p)
	if err != nil {
		s.misses.Add(1)
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	s.hits.Add(1)
	return b, true, nil
}

// Stats reports lookup counters since open.
func (s *ResultStore) Stats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}
