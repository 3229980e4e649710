package mem

import (
	"cmp"
	"slices"
)

// Warm-up composition. A simulator warms a hierarchy with two sweeps: an
// instruction fetch every SweepStride bytes of a program's text, then a data
// access every SweepStride bytes of a data region. The L1I sees only the
// first sweep and the L1D only the second. The L2 sees the instruction
// sweep's L1I misses, then the data sweep's L1D misses, and its sets are
// independent of each other, each access stamping its way with the running
// tick. So every L2 set no L1I miss maps to ends as the data sweep alone
// leaves it, its stamps and the tick moved up by the instruction sweep's L2
// access count; a set an L1I miss does map to is rebuilt by replaying that
// set's instruction-side accesses, then the data sweep's recorded accesses
// to it at their moved-up ticks. DataWarm holds what depends on the
// configuration alone, so one serves every program; TextWarm holds what a
// text length adds, O(text lines) of it.

// SweepStride is the distance between two accesses of a warm-up sweep.
const SweepStride = 64

// DataWarm is the data half of a warm-up: the L1D and L2 as the data sweep
// leaves them on its own, and the sweep's L2 accesses, set by set. It is
// never written once made, so any number of goroutines may compose from it.
type DataWarm struct {
	cfg     Config
	base    uint64
	l1d, l2 *Cache        // nil in perfect mode, where no access touches a cache
	rec     []sweepAccess // the sweep's L2 accesses, by set and then by tick
}

// A sweepAccess is one access of the data sweep that reached the L2: the
// sweep step that made it and the L2 tick it was made at.
type sweepAccess struct{ step, tick uint32 }

// NewDataWarm runs the data sweep on a cold hierarchy of cfg: an AccessD
// every SweepStride bytes from base, steps (fewer than 2^32) of them.
func NewDataWarm(cfg Config, base uint64, steps int) (*DataWarm, error) {
	h, err := NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	d := &DataWarm{cfg: cfg, base: base}
	if cfg.Perfect {
		return d, nil
	}
	d.l1d, d.l2 = h.l1d, h.l2
	d.rec = make([]sweepAccess, 0, steps)
	for i := 0; i < steps; i++ {
		tick := d.l2.tick
		h.AccessD(d.addr(i))
		if d.l2.tick != tick {
			d.rec = append(d.rec, sweepAccess{step: uint32(i), tick: uint32(d.l2.tick)})
		}
	}
	slices.SortStableFunc(d.rec, func(a, b sweepAccess) int { return cmp.Compare(d.access(a).set, d.access(b).set) })
	return d, nil
}

func (d *DataWarm) addr(step int) uint64 { return d.base + uint64(step)*SweepStride }

// access returns the L2 access r records.
func (d *DataWarm) access(r sweepAccess) access {
	set, tag := d.l2.locate(d.addr(int(r.step)))
	return access{set, tag, uint64(r.tick)}
}

// Bytes is the number of bytes d holds in its arrays.
func (d *DataWarm) Bytes() int {
	return d.l1d.bytes() + d.l2.bytes() + 8*cap(d.rec)
}

// TextWarm is what an instruction sweep changes in front of a DataWarm's
// data sweep: the L1I sets it fills, and the L2 sets its L1I misses map to
// as both sweeps leave them, with each level's tick and counters. It holds
// nothing for a perfect hierarchy.
type TextWarm struct {
	l1i, l2 cacheDelta
}

// cacheDelta is some of a cache's sets, whole: set sets[i] holds ways
// i*assoc up to (i+1)*assoc of tags, valid and stamp. With them go the
// cache's tick and counters.
type cacheDelta struct {
	sets               []int
	tags               []uint64
	valid              []bool
	stamp              []uint64
	tick, hits, misses uint64
}

// Text runs the instruction sweep, an AccessI every SweepStride bytes from
// base, lines of them, in front of d's data sweep, and keeps what it
// changes. It replays the sweep on a scratch L1I and, one set at a time,
// the L2 sets the sweep reaches; the data sweep does not run again.
func (d *DataWarm) Text(base uint64, lines int) *TextWarm {
	t := &TextWarm{}
	if d.cfg.Perfect {
		return t
	}
	l1i := coldInto(d.cfg.L1I, nil)
	var misses []uint64 // the L1I misses, which the L2 sees at ticks 1, 2, ...
	for i := 0; i < lines; i++ {
		if a := base + uint64(i)*SweepStride; !l1i.Access(a) {
			misses = append(misses, a)
		}
	}
	var filled []int
	for s := 0; s*l1i.cfg.Assoc < len(l1i.valid); s++ {
		if slices.Contains(l1i.valid[s*l1i.cfg.Assoc:(s+1)*l1i.cfg.Assoc], true) {
			filled = append(filled, s)
		}
	}
	t.l1i = newDelta(len(filled), l1i.cfg.Assoc)
	for _, s := range filled {
		t.l1i.keep(s, l1i, s)
	}
	t.l1i.tick, t.l1i.hits, t.l1i.misses = l1i.tick, l1i.Hits, l1i.Misses

	// Group the misses by L2 set, keeping their order within a set.
	bySet := make([]access, len(misses))
	sets := 0
	for i, a := range misses {
		set, tag := d.l2.locate(a)
		bySet[i] = access{set, tag, uint64(i + 1)}
	}
	slices.SortStableFunc(bySet, func(a, b access) int { return cmp.Compare(a.set, b.set) })
	for i := range bySet {
		if i == 0 || bySet[i].set != bySet[i-1].set {
			sets++
		}
	}

	// Replay each of those sets on a one-set scratch cache, once with the
	// data sweep's accesses to it alone and once behind the misses: the hits
	// the first replay counts leave the data sweep's total, and those the
	// second counts join it.
	ways := d.cfg.L2.Assoc
	one := &Cache{cfg: d.cfg.L2, tags: make([]uint64, ways), valid: make([]bool, ways), stamp: make([]uint64, ways)}
	t.l2 = newDelta(sets, ways)
	hits := d.l2.Hits
	var data []access
	for len(bySet) > 0 {
		set := bySet[0].set
		n := 1
		for n < len(bySet) && bySet[n].set == set {
			n++
		}
		first, _ := slices.BinarySearchFunc(d.rec, set, func(r sweepAccess, set int) int { return cmp.Compare(d.access(r).set, set) })
		data = data[:0]
		for _, r := range d.rec[first:] {
			a := d.access(r)
			if a.set != set {
				break
			}
			data = append(data, a)
		}
		hits -= one.replay(nil, data, 0)
		hits += one.replay(bySet[:n], data, uint64(len(misses)))
		t.l2.keep(set, one, 0)
		bySet = bySet[n:]
	}
	t.l2.tick = d.l2.tick + uint64(len(misses))
	t.l2.hits, t.l2.misses = hits, t.l2.tick-hits // every access hits or misses once
	return t
}

// An access looks tag up in set at tick.
type access struct {
	set       int
	tag, tick uint64
}

// replay empties c's set 0 and runs front and then back on it, back's ticks
// moved up by shift, and returns the hits.
func (c *Cache) replay(front, back []access, shift uint64) (hits uint64) {
	clear(c.tags[:c.cfg.Assoc])
	clear(c.valid[:c.cfg.Assoc])
	clear(c.stamp[:c.cfg.Assoc])
	for _, a := range front {
		if c.touch(0, a.tag, a.tick) {
			hits++
		}
	}
	for _, a := range back {
		if c.touch(0, a.tag, a.tick+shift) {
			hits++
		}
	}
	return hits
}

// Bytes is the number of bytes t holds in its arrays.
func (t *TextWarm) Bytes() int { return t.l1i.bytes() + t.l2.bytes() }

// newDelta returns an empty delta with room for sets sets of ways ways.
func newDelta(sets, ways int) cacheDelta {
	return cacheDelta{
		sets:  make([]int, 0, sets),
		tags:  make([]uint64, 0, sets*ways),
		valid: make([]bool, 0, sets*ways),
		stamp: make([]uint64, 0, sets*ways),
	}
}

// keep appends c's set from to the delta as its set s.
func (d *cacheDelta) keep(s int, c *Cache, from int) {
	ways := c.cfg.Assoc
	lo, hi := from*ways, (from+1)*ways
	d.sets = append(d.sets, s)
	d.tags = append(d.tags, c.tags[lo:hi]...)
	d.valid = append(d.valid, c.valid[lo:hi]...)
	d.stamp = append(d.stamp, c.stamp[lo:hi]...)
}

// apply writes the delta's sets, tick and counters into c.
func (d *cacheDelta) apply(c *Cache) {
	ways := c.cfg.Assoc
	for i, s := range d.sets {
		copy(c.tags[s*ways:(s+1)*ways], d.tags[i*ways:])
		copy(c.valid[s*ways:(s+1)*ways], d.valid[i*ways:])
		copy(c.stamp[s*ways:(s+1)*ways], d.stamp[i*ways:])
	}
	c.tick, c.Hits, c.Misses = d.tick, d.hits, d.misses
}

func (d *cacheDelta) bytes() int {
	return 8*cap(d.sets) + 8*cap(d.tags) + cap(d.valid) + 8*cap(d.stamp)
}

// Compose returns the hierarchy both sweeps leave, t's instruction sweep and
// then d's data sweep: the exact state, stamps, ticks and counters included,
// that replaying them on a cold hierarchy gives. t must have been made by
// d's Text, or by that of a DataWarm of the same configuration and sweep.
// The hierarchy is built in dst's arrays where dst's caches have the
// geometry of d's configuration (dst may be nil), in new ones otherwise.
func (d *DataWarm) Compose(t *TextWarm, dst *Hierarchy) *Hierarchy {
	if dst == nil {
		dst = &Hierarchy{}
	}
	dst.cfg = d.cfg
	dst.l1i = coldInto(d.cfg.L1I, dst.l1i)
	if d.cfg.Perfect {
		dst.l1d = coldInto(d.cfg.L1D, dst.l1d)
		dst.l2 = coldInto(d.cfg.L2, dst.l2)
		return dst
	}
	t.l1i.apply(dst.l1i)
	dst.l1d = d.l1d.cloneInto(dst.l1d, 0)
	dst.l2 = d.l2.cloneInto(dst.l2, t.l2.tick-d.l2.tick)
	t.l2.apply(dst.l2)
	return dst
}
