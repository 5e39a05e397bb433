package cache

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func mk(t *testing.T) *Cache {
	t.Helper()
	return New(16*1024, 2, 64) // 128 sets
}

func TestGeometry(t *testing.T) {
	c := mk(t)
	if c.Sets() != 128 || c.Assoc() != 2 {
		t.Fatalf("sets=%d assoc=%d", c.Sets(), c.Assoc())
	}
	if c.LineOf(0) != 0 || c.LineOf(63) != 0 || c.LineOf(64) != 1 {
		t.Fatal("LineOf wrong for 64B lines")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct{ size, assoc, line int }{
		{16 * 1024, 2, 48},  // non-power-of-two line
		{3 * 1000, 2, 64},   // non-power-of-two sets
		{64, 2, 64},         // zero sets
		{0, 2, 64},          // zero size
		{16 * 1024, 0, 64},  // zero ways
		{16 * 1024, -2, 64}, // negative ways
		{1 << 20, 3, 64},    // 5,461 sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d,%d) did not panic", tc.size, tc.assoc, tc.line)
				}
			}()
			New(tc.size, tc.assoc, tc.line)
		}()
	}
}

func TestInsertLookup(t *testing.T) {
	c := mk(t)
	l, _, ev := c.Insert(5, Shared)
	if ev {
		t.Fatal("eviction from empty cache")
	}
	if l.Tag != 5 || l.State != Shared {
		t.Fatalf("inserted line = %+v", *l)
	}
	got := c.Lookup(5)
	if got == nil || got.Tag != 5 {
		t.Fatal("lookup after insert missed")
	}
	if c.Lookup(6) != nil {
		t.Fatal("lookup of absent line hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2*2*64, 2, 64) // 2 sets, 2 ways
	// Lines 0, 2, 4 all map to set 0.
	c.Insert(0, Shared)
	c.Insert(2, Shared)
	c.Lookup(0) // make line 2 the LRU
	_, victim, ev := c.Insert(4, Shared)
	if !ev || victim.Tag != 2 {
		t.Fatalf("evicted %+v (ev=%v), want tag 2", victim, ev)
	}
	if c.Peek(0) == nil || c.Peek(4) == nil || c.Peek(2) != nil {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestEvictionPrefersInvalidWay(t *testing.T) {
	c := New(2*2*64, 2, 64)
	c.Insert(0, Shared)
	c.Insert(2, Modified)
	c.Invalidate(0)
	_, _, ev := c.Insert(4, Shared)
	if ev {
		t.Fatal("evicted a line while an invalid way was available")
	}
	if c.Peek(2) == nil {
		t.Fatal("valid line lost")
	}
}

func TestInvalidate(t *testing.T) {
	c := mk(t)
	c.Insert(9, Modified)
	old, was := c.Invalidate(9)
	if !was || old.State != Modified || old.Tag != 9 {
		t.Fatalf("invalidate returned %+v, %v", old, was)
	}
	if c.Peek(9) != nil {
		t.Fatal("line still resident after invalidate")
	}
	if _, was := c.Invalidate(9); was {
		t.Fatal("double invalidate reported residency")
	}
}

func TestPeekDoesNotBumpLRU(t *testing.T) {
	c := New(2*2*64, 2, 64)
	c.Insert(0, Shared)
	c.Insert(2, Shared)
	c.Peek(0) // must NOT protect line 0
	_, victim, ev := c.Insert(4, Shared)
	if !ev || victim.Tag != 0 {
		t.Fatalf("evicted tag %d, want 0 (Peek must not bump LRU)", victim.Tag)
	}
}

func TestLineMetadataResetOnInsert(t *testing.T) {
	c := mk(t)
	l, _, _ := c.Insert(1, Shared)
	l.UsedByPair = true
	l.FilledBy = 3
	l.FillKindV = FillReadEx
	l.FillDone = 40
	l.L1Mask = 3
	c.Invalidate(1)
	l2, _, _ := c.Insert(1, Modified)
	if *l2 != (Line{Tag: 1, State: Modified, lastUse: l2.lastUse}) {
		t.Fatalf("metadata not reset: %+v", *l2)
	}
}

// A Line is 32 bytes: four fit a 128-byte set of the L2.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 32 {
		t.Fatalf("Line is %d bytes, want 32", n)
	}
}

// New allocates no line storage: a 16 MB cache costs the allocations of
// a 16 KB one, and pages come at first fill.
func TestNewAllocsIndependentOfSize(t *testing.T) {
	small := testing.AllocsPerRun(10, func() { New(16*1024, 2, 64) })
	large := testing.AllocsPerRun(10, func() { New(16<<20, 4, 64) })
	if small != large {
		t.Fatalf("New allocates %.0f times for 16 KB and %.0f for 16 MB", small, large)
	}
}

func TestForEachResident(t *testing.T) {
	c := mk(t)
	c.Insert(1, Shared)
	c.Insert(200, Modified)
	c.Insert(300, Shared)
	c.Invalidate(200)
	n := 0
	c.ForEachResident(func(l *Line) { n++ })
	if n != 2 {
		t.Fatalf("resident count = %d, want 2", n)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("state mnemonics wrong")
	}
}

// Property: a cache never holds two copies of the same tag, and never holds
// more than assoc lines per set, under arbitrary insert/invalidate traffic.
func TestPropertyNoDuplicatesNoOverflow(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(8*2*64, 2, 64) // 8 sets, 2 ways
		for _, op := range ops {
			line := uint64(op % 64)
			if op%3 == 0 {
				c.Invalidate(line)
			} else if c.Peek(line) == nil {
				c.Insert(line, Shared)
			}
		}
		seen := map[uint64]int{}
		c.ForEachResident(func(l *Line) { seen[l.Tag]++ })
		for tag, n := range seen {
			if n > 1 {
				t.Logf("tag %d resident %d times", tag, n)
				return false
			}
			if c.Peek(tag) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: after inserting a line it is always resident until invalidated
// or evicted, and eviction only happens when the set is full.
func TestPropertyInsertThenFound(t *testing.T) {
	f := func(lines []uint8) bool {
		c := New(4*4*64, 4, 64) // 4 sets, 4 ways
		for _, ln := range lines {
			line := uint64(ln)
			if c.Peek(line) != nil {
				continue
			}
			l, _, _ := c.Insert(line, Modified)
			if l.Tag != line || c.Peek(line) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// benchLines fills the first set of each of 64 pages of a Table 1 L2 and
// returns the lines, so lookups walk the page table.
func benchLines(c *Cache) []uint64 {
	lines := make([]uint64, 64)
	for i := range lines {
		lines[i] = uint64(i) * 64
		c.Insert(lines[i], Shared)
	}
	return lines
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(1<<20, 4, 64)
	lines := benchLines(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(lines[i&63]) == nil {
			b.Fatal("miss")
		}
	}
}

func BenchmarkPeekMiss(b *testing.B) {
	c := New(1<<20, 4, 64)
	lines := benchLines(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Peek(lines[i&63]+1) != nil {
			b.Fatal("hit")
		}
	}
}
