// Package mem models the memory hierarchy of Table 4: a 64KB 4-way L1
// instruction cache (3-cycle), a 64KB 2-way L1 data cache (3-cycle), a
// unified 1MB 8-way L2 (6-cycle), and 400-cycle main memory. Caches are
// LRU, write-allocate, with timing returned as a total access latency; a
// perfect mode services every access at L1 latency for the Figure 1 study.
package mem

import (
	"fmt"
	"math/bits"
)

// CacheConfig sizes one cache level.
type CacheConfig struct {
	SizeKB  int
	Assoc   int
	LineB   int // line size in bytes
	Latency int // cycles for a hit at this level
}

// Cache is one set-associative LRU cache level. The per-way state lives in
// flat slices indexed set*assoc+way, which keeps lookups on one cache line
// per set and makes a copy a few passes over three arrays.
type Cache struct {
	cfg     CacheConfig
	setMask uint64 // the set count, a power of two, less one
	setSh   uint   // log2 of the set count
	lineSh  uint
	tags    []uint64
	valid   []bool
	stamp   []uint64
	tick    uint64
	Hits    uint64
	Misses  uint64
}

// Ceilings on a configuration, far above every machine the repository
// models (Table 4's largest cache is the 1 MiB, 8-way L2 of 16 Ki lines, and
// its main memory takes 400 cycles) but low enough that no configuration can
// make a simulation allocate more than a few tens of megabytes for its
// caches or its completion calendar, whose span covers the longest latency.
const (
	MaxCacheKB    = 1 << 14 // 16 MiB per cache
	MaxCacheLines = 1 << 18 // lines per cache
	MaxAssoc      = 256
	MaxLatency    = 1 << 18 // cycles, for any one latency
)

// sets is the configuration's set count.
func (cfg CacheConfig) sets() int { return cfg.SizeKB * 1024 / cfg.LineB / cfg.Assoc }

// check validates the configuration.
func (cfg CacheConfig) check() error {
	if cfg.SizeKB <= 0 || cfg.Assoc <= 0 || cfg.LineB <= 0 {
		return fmt.Errorf("mem: bad cache config %+v", cfg)
	}
	if cfg.SizeKB > MaxCacheKB || cfg.Assoc > MaxAssoc || cfg.SizeKB*1024/cfg.LineB > MaxCacheLines || cfg.Latency > MaxLatency {
		return fmt.Errorf("mem: cache config %+v exceeds the ceilings (%d KB, %d lines, %d ways, %d cycles)",
			cfg, MaxCacheKB, MaxCacheLines, MaxAssoc, MaxLatency)
	}
	if sets := cfg.sets(); sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("mem: cache %+v yields %d sets (must be a power of two)", cfg, sets)
	}
	return nil
}

// NewCache builds a cache from its configuration.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	return coldInto(cfg, nil), nil
}

// coldInto returns a cold cache of cfg, which must pass check, built in dst's
// arrays when they have its size (dst may be nil), in new ones otherwise.
func coldInto(cfg CacheConfig, dst *Cache) *Cache {
	sets := cfg.sets()
	n := sets * cfg.Assoc
	if dst == nil || len(dst.tags) != n {
		dst = &Cache{tags: make([]uint64, n), valid: make([]bool, n), stamp: make([]uint64, n)}
	} else {
		clear(dst.tags)
		clear(dst.valid)
		clear(dst.stamp)
	}
	lineSh := uint(0)
	for 1<<lineSh < cfg.LineB {
		lineSh++
	}
	*dst = Cache{
		cfg:     cfg,
		setMask: uint64(sets - 1),
		setSh:   uint(bits.TrailingZeros(uint(sets))),
		lineSh:  lineSh,
		tags:    dst.tags,
		valid:   dst.valid,
		stamp:   dst.stamp,
	}
	return dst
}

// cloneInto returns an independent copy of the cache, state and counters
// alike, with the tick and the stamp of every filled way (a way's stamp is 0
// until it is first filled) moved up by shift. It reuses dst's arrays when
// they have c's length, and allocates new ones otherwise (dst may be nil).
func (c *Cache) cloneInto(dst *Cache, shift uint64) *Cache {
	if dst == nil || len(dst.tags) != len(c.tags) {
		dst = &Cache{
			tags:  make([]uint64, len(c.tags)),
			valid: make([]bool, len(c.valid)),
			stamp: make([]uint64, len(c.stamp)),
		}
	}
	tags, valid, stamp := dst.tags, dst.valid, dst.stamp
	*dst = *c
	dst.tags, dst.valid, dst.stamp = tags, valid, stamp
	copy(dst.tags, c.tags)
	copy(dst.valid, c.valid)
	stamp = stamp[:len(c.stamp)]
	for i, s := range c.stamp {
		if s != 0 {
			s += shift
		}
		stamp[i] = s
	}
	dst.tick += shift
	return dst
}

// Access looks up addr, filling on miss, and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.tick++
	set, tag := c.locate(addr)
	if c.touch(set, tag, c.tick) {
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// locate returns the set addr maps to and its tag there.
func (c *Cache) locate(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineSh
	return int(line & c.setMask), line >> c.setSh
}

// touch looks tag up in set, filling the set's LRU way when it is absent,
// and stamps the way it is in with tick. It reports whether tag was present.
func (c *Cache) touch(set int, tag, tick uint64) bool {
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.stamp[base+w] = tick
			return true
		}
	}
	// Fill the LRU way.
	victim := 0
	for w := 1; w < c.cfg.Assoc; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
		if c.stamp[base+w] < c.stamp[base+victim] && c.valid[base+victim] {
			victim = w
		}
	}
	c.valid[base+victim] = true
	c.tags[base+victim] = tag
	c.stamp[base+victim] = tick
	return false
}

// Latency returns the hit latency of this level.
func (c *Cache) Latency() int { return c.cfg.Latency }

// Config holds the full hierarchy parameters.
type Config struct {
	L1I, L1D, L2 CacheConfig
	MemLatency   int
	Perfect      bool // every access hits at L1 latency (Figure 1)
}

// DefaultConfig returns Table 4's hierarchy.
func DefaultConfig() Config {
	return Config{
		L1I:        CacheConfig{SizeKB: 64, Assoc: 4, LineB: 64, Latency: 3},
		L1D:        CacheConfig{SizeKB: 64, Assoc: 2, LineB: 64, Latency: 3},
		L2:         CacheConfig{SizeKB: 1024, Assoc: 8, LineB: 64, Latency: 6},
		MemLatency: 400,
	}
}

// Hierarchy is the instruction+data cache tree.
type Hierarchy struct {
	cfg Config
	l1i *Cache
	l1d *Cache
	l2  *Cache
}

// Validate checks every level's geometry and latency against the
// constraints NewHierarchy enforces, ceilings included.
func (cfg Config) Validate() error {
	for _, c := range []CacheConfig{cfg.L1I, cfg.L1D, cfg.L2} {
		if err := c.check(); err != nil {
			return err
		}
	}
	if cfg.MemLatency <= 0 {
		return fmt.Errorf("mem: bad memory latency %d", cfg.MemLatency)
	}
	if cfg.MemLatency > MaxLatency {
		return fmt.Errorf("mem: memory latency %d exceeds the ceiling %d", cfg.MemLatency, MaxLatency)
	}
	return nil
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1i, err := NewCache(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := NewCache(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{cfg: cfg, l1i: l1i, l1d: l1d, l2: l2}, nil
}

func (c *Cache) bytes() int {
	if c == nil {
		return 0
	}
	return 8*len(c.tags) + len(c.valid) + 8*len(c.stamp)
}

// AccessI returns the latency of an instruction fetch at addr.
func (h *Hierarchy) AccessI(addr uint64) int {
	return h.access(h.l1i, addr)
}

// AccessD returns the latency of a data access at addr. Stores and loads
// are treated alike (write-allocate; write-back traffic is not modeled,
// matching the paper's level of detail).
func (h *Hierarchy) AccessD(addr uint64) int {
	return h.access(h.l1d, addr)
}

func (h *Hierarchy) access(l1 *Cache, addr uint64) int {
	if h.cfg.Perfect {
		return l1.Latency()
	}
	if l1.Access(addr) {
		return l1.Latency()
	}
	if h.l2.Access(addr) {
		return l1.Latency() + h.l2.Latency()
	}
	return l1.Latency() + h.l2.Latency() + h.cfg.MemLatency
}

// Stats reports hit/miss counters per level.
func (h *Hierarchy) Stats() (l1iHits, l1iMiss, l1dHits, l1dMiss, l2Hits, l2Miss uint64) {
	return h.l1i.Hits, h.l1i.Misses, h.l1d.Hits, h.l1d.Misses, h.l2.Hits, h.l2.Misses
}
