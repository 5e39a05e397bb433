// Package cache implements the set-associative write-back caches of the
// simulated machine: per-processor split L1s and the per-CMP unified L2
// shared by the two processors of a node (paper Table 1).
//
// Caches store timing state only — data values live in the shmem backing
// store. Each L2 line carries the metadata needed to classify shared-memory
// requests the way the paper's Figures 3 and 5 do (A-Timely / A-Late /
// A-Only and the R-stream equivalents), plus L1 presence bits so the L2 can
// maintain inclusion over its two L1s.
package cache

import (
	"fmt"
	"math/bits"
)

// State is a cache line coherence state (MSI).
type State uint8

// Line states. Shared lines are clean and possibly replicated; Modified
// lines are dirty and exclusive system-wide.
const (
	Invalid State = iota
	Shared
	Modified
)

// String returns the state mnemonic.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// FillKind records what transaction filled an L2 line (for classification).
type FillKind uint8

// Fill kinds: no record, a read (shared) fill, or a read-exclusive fill.
const (
	FillNone FillKind = iota
	FillRead
	FillReadEx
)

// Line is one cache line's tag and metadata. The zero Line is an empty
// (Invalid) way, so fresh storage needs no initialization. Fields are
// ordered so that a Line is 32 bytes.
type Line struct {
	Tag     uint64 // line number (address >> lineShift); valid iff State != Invalid
	lastUse uint64

	// L2-only: classification of the fill that brought the line in.
	FillDone   uint64   // simulation time at which the fill completes
	FilledBy   int32    // global proc index of the requester, if FillKindV != FillNone
	FillKindV  FillKind // FillNone if the fill is untracked
	UsedByPair bool     // the requester's slipstream partner touched the line

	// L2-only: inclusion tracking over the node's two L1s.
	L1Mask uint8 // bit c set => local cpu c's L1 holds the line

	State State // MSI coherence state
}

// reset clears a line for reuse by a new tag.
func (l *Line) reset(tag uint64, st State, use uint64) {
	*l = Line{Tag: tag, State: st, lastUse: use}
}

// Lines are stored in pages of whole sets, allocated the first time Insert
// fills one of a page's sets, so a cache costs what a run fills rather
// than its capacity. A page holds up to pageLines lines (all of a 16 KB
// 2-way L1, or 64 sets of a 1 MB 4-way L2), or one set when a set is
// longer.
const pageLines = 256

// emptyPage backs every page slot no Insert has filled yet. It is never
// written: every way is Invalid, so Lookup and Peek cannot hit in it, and
// Insert swaps in a real page before it writes.
var emptyPage [pageLines]Line

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	lineShift uint
	setMask   uint64
	pageShift uint   // log2 of the sets per page
	pageMask  uint64 // sets per page - 1
	assoc     uint64
	nsets     int
	pages     [][]Line // in set order; a slot no Insert filled is empty
	empty     []Line   // the all-Invalid page of this cache's page size
	useClock  uint64

	// Counters.
	Hits   uint64
	Misses uint64
	Evicts uint64
}

// Geometry returns the number of sets of a sizeBytes cache with the given
// associativity and line size, or an error when New cannot build it: the
// size and associativity must be at least 1, the line size a power of two,
// and the set count a power of two.
func Geometry(sizeBytes, assoc, lineBytes int) (int, error) {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return 0, fmt.Errorf("line size %d not a power of two", lineBytes)
	}
	if sizeBytes < 1 || assoc < 1 {
		return 0, fmt.Errorf("%d B/%d-way: size and associativity must be at least 1", sizeBytes, assoc)
	}
	nsets := sizeBytes / assoc / lineBytes
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		return 0, fmt.Errorf("%d B/%d-way/%d B-line gives %d sets (must be a power of two)",
			sizeBytes, assoc, lineBytes, nsets)
	}
	return nsets, nil
}

// New builds a cache of sizeBytes with the given associativity and line
// size. It panics on a geometry Geometry refuses.
func New(sizeBytes, assoc, lineBytes int) *Cache {
	nsets, err := Geometry(sizeBytes, assoc, lineBytes)
	if err != nil {
		panic("cache: " + err.Error())
	}
	c := &Cache{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:   uint64(nsets - 1),
		assoc:     uint64(assoc),
		nsets:     nsets,
	}
	perPage := 1
	for 2*perPage <= nsets && 2*perPage <= pageLines/assoc {
		perPage *= 2
	}
	c.pageShift = uint(bits.TrailingZeros(uint(perPage)))
	c.pageMask = uint64(perPage - 1)
	if n := perPage * assoc; n <= pageLines {
		c.empty = emptyPage[:n]
	} else {
		c.empty = make([]Line, n)
	}
	c.pages = make([][]Line, nsets/perPage)
	for i := range c.pages {
		c.pages[i] = c.empty
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nsets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return int(c.assoc) }

// LineOf maps an address to its line number.
func (c *Cache) LineOf(addr uint64) uint64 { return addr >> c.lineShift }

// set returns the slice of ways for a line number. The shift count is
// masked so the compiler drops its check for shifts past 63.
func (c *Cache) set(line uint64) []Line {
	s := line & c.setMask
	o := (s & c.pageMask) * c.assoc
	return c.pages[s>>(c.pageShift&63)][o : o+c.assoc]
}

// filled reports whether page p has real storage.
func (c *Cache) filled(p []Line) bool { return &p[0] != &c.empty[0] }

// Lookup finds a resident line and bumps its LRU position. Returns nil on
// miss. Lookup does not update hit/miss counters; the caller decides what
// counts as a demand access.
func (c *Cache) Lookup(line uint64) *Line {
	ways := c.set(line)
	for i := range ways {
		if ways[i].State != Invalid && ways[i].Tag == line {
			c.useClock++
			ways[i].lastUse = c.useClock
			return &ways[i]
		}
	}
	return nil
}

// Peek finds a resident line without disturbing LRU state.
func (c *Cache) Peek(line uint64) *Line {
	ways := c.set(line)
	for i := range ways {
		if ways[i].State != Invalid && ways[i].Tag == line {
			return &ways[i]
		}
	}
	return nil
}

// Insert allocates a way for line (which must not be resident), evicting
// the LRU way if needed. It returns the new line (already reset, in state
// st) and, when an eviction occurred, a copy of the victim's metadata.
func (c *Cache) Insert(line uint64, st State) (l *Line, victim Line, evicted bool) {
	if p := (line & c.setMask) >> c.pageShift; !c.filled(c.pages[p]) {
		c.pages[p] = make([]Line, len(c.empty))
	}
	ways := c.set(line)
	var slot *Line
	for i := range ways {
		if ways[i].State == Invalid {
			slot = &ways[i]
			break
		}
	}
	if slot == nil {
		slot = &ways[0]
		for i := 1; i < len(ways); i++ {
			if ways[i].lastUse < slot.lastUse {
				slot = &ways[i]
			}
		}
		victim = *slot
		evicted = true
		c.Evicts++
	}
	c.useClock++
	slot.reset(line, st, c.useClock)
	return slot, victim, evicted
}

// Invalidate removes line if resident, returning a copy of its prior
// metadata and whether it was resident.
func (c *Cache) Invalidate(line uint64) (old Line, was bool) {
	if l := c.Peek(line); l != nil {
		old = *l
		l.State = Invalid
		return old, true
	}
	return Line{}, false
}

// ForEachResident calls fn for every valid line in set order (used for
// end-of-run classification of prefetched-but-never-used lines). Pages no
// Insert filled are skipped.
func (c *Cache) ForEachResident(fn func(*Line)) {
	for _, p := range c.pages {
		if !c.filled(p) {
			continue
		}
		for i := range p {
			if p[i].State != Invalid {
				fn(&p[i])
			}
		}
	}
}
