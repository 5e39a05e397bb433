package cache

import (
	"cmp"
	"slices"
	"testing"
)

// dense is the reference layout: every line of the cache in one set-major
// slice, allocated up front. The paged Cache must behave exactly like it.
type dense struct {
	setMask  uint64
	assoc    int
	lines    []Line
	useClock uint64
}

func newDense(sizeBytes, assoc, lineBytes int) *dense {
	nsets, err := Geometry(sizeBytes, assoc, lineBytes)
	if err != nil {
		panic(err)
	}
	return &dense{setMask: uint64(nsets - 1), assoc: assoc, lines: make([]Line, nsets*assoc)}
}

func (c *dense) set(line uint64) []Line {
	s := int(line & c.setMask)
	return c.lines[s*c.assoc : (s+1)*c.assoc]
}

func (c *dense) Lookup(line uint64) *Line {
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

func (c *dense) Peek(line uint64) *Line {
	ways := c.set(line)
	for i := range ways {
		if ways[i].State != Invalid && ways[i].Tag == line {
			return &ways[i]
		}
	}
	return nil
}

func (c *dense) Insert(line uint64, st State) (*Line, Line, bool) {
	ways := c.set(line)
	var slot *Line
	var victim Line
	evicted := false
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
		victim, evicted = *slot, true
	}
	c.useClock++
	slot.reset(line, st, c.useClock)
	return slot, victim, evicted
}

func (c *dense) Invalidate(line uint64) (Line, bool) {
	if l := c.Peek(line); l != nil {
		old := *l
		l.State = Invalid
		return old, true
	}
	return Line{}, false
}

func (c *dense) ForEachResident(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(&c.lines[i])
		}
	}
}

// fuzzGeometries are the caches FuzzCacheMatchesDense drives: the Table 1
// L1 (one page), the Table 1 L2 (64 pages), a 2-set cache, a 3-way cache
// (pages of 64 sets, 192 lines), and a 512-way cache whose sets are longer
// than a page (its own empty page).
var fuzzGeometries = []struct{ size, assoc, line int }{
	{16 * 1024, 2, 64},
	{1 << 20, 4, 64},
	{2 * 2 * 64, 2, 64},
	{3 * 128 * 64, 3, 64},
	{4 * 512 * 64, 512, 64},
}

// resident lists a cache's valid lines, ordered by tag.
func resident(each func(func(*Line))) []Line {
	var out []Line
	each(func(l *Line) { out = append(out, *l) })
	slices.SortFunc(out, func(a, b Line) int { return cmp.Compare(a.Tag, b.Tag) })
	return out
}

// FuzzCacheMatchesDense runs one Insert/Lookup/Peek/Invalidate sequence
// on the paged cache and on the dense reference: every returned line,
// victim and flag must match, and so must the lines ForEachResident
// visits. Each op is three bytes: the operation, a tag and a set.
func FuzzCacheMatchesDense(f *testing.F) {
	for g := range fuzzGeometries {
		f.Add(uint8(g), []byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 1, 0, 0, 2, 3, 7, 3, 0, 0})
		f.Add(uint8(g), []byte{0, 1, 5, 0, 2, 5, 0, 3, 5, 0, 4, 5, 0, 5, 5, 1, 1, 5, 0, 6, 5, 3, 2, 5, 0, 9, 255, 2, 9, 255})
		// Neighbouring sets filled past their ways, then probed.
		f.Add(uint8(g), []byte{0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 2, 0, 0, 2, 1, 2, 0, 0, 2, 0, 1, 2, 1, 0, 2, 1, 1})
	}
	f.Fuzz(func(t *testing.T, geo uint8, ops []byte) {
		g := fuzzGeometries[int(geo)%len(fuzzGeometries)]
		c, d := New(g.size, g.assoc, g.line), newDense(g.size, g.assoc, g.line)
		nsets := uint64(c.Sets())
		stride := max(nsets/256, 1) // spread the set byte over every page
		for i := 0; i+2 < len(ops); i += 3 {
			line := uint64(ops[i+1]%16)*nsets + uint64(ops[i+2])*stride
			switch ops[i] % 4 {
			case 0:
				if c.Peek(line) != nil {
					continue
				}
				l, victim, ev := c.Insert(line, State(1+ops[i+1]%2))
				dl, dvictim, dev := d.Insert(line, State(1+ops[i+1]%2))
				if *l != *dl || victim != dvictim || ev != dev {
					t.Fatalf("op %d Insert(%d) = %+v, %+v, %v; dense %+v, %+v, %v", i/3, line, *l, victim, ev, *dl, dvictim, dev)
				}
				// Metadata the machine would record, so victims carry it.
				l.FilledBy, dl.FilledBy = int32(ops[i+2]), int32(ops[i+2])
				l.FillKindV, dl.FillKindV = FillRead, FillRead
				l.L1Mask, dl.L1Mask = ops[i+1]%4, ops[i+1]%4
			case 1:
				l, dl := c.Lookup(line), d.Lookup(line)
				if (l == nil) != (dl == nil) || l != nil && *l != *dl {
					t.Fatalf("op %d Lookup(%d) = %v, dense %v", i/3, line, l, dl)
				}
			case 2:
				l, dl := c.Peek(line), d.Peek(line)
				if (l == nil) != (dl == nil) || l != nil && *l != *dl {
					t.Fatalf("op %d Peek(%d) = %v, dense %v", i/3, line, l, dl)
				}
			case 3:
				old, was := c.Invalidate(line)
				dold, dwas := d.Invalidate(line)
				if old != dold || was != dwas {
					t.Fatalf("op %d Invalidate(%d) = %+v, %v; dense %+v, %v", i/3, line, old, was, dold, dwas)
				}
			}
		}
		if got, want := resident(c.ForEachResident), resident(d.ForEachResident); !slices.Equal(got, want) {
			t.Fatalf("resident lines %+v, dense %+v", got, want)
		}
		for i := range c.empty {
			if c.empty[i] != (Line{}) {
				t.Fatalf("empty page way %d written: %+v", i, c.empty[i])
			}
		}
	})
}
