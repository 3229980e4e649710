package uarch

import (
	"sync"

	"braid/internal/isa"
	"braid/internal/mem"
)

// Cache warm-up replays ~16K accesses (the text segment plus the first
// megabyte of data space) against a cold hierarchy. The replayed sequence —
// and therefore the resulting cache state and hit/miss counters — depends
// only on the hierarchy configuration and the text-segment length, so sweeps
// that build hundreds of machines per configuration can warm one prototype
// and hand each machine a copy of it.

type warmKey struct {
	cfg     mem.Config
	textLen int
}

// maxProtoBytes bounds the prototypes' cache arrays: ~100 at Table 4's
// geometry (~306 KiB each), while a whole braidbench suite warms 42. When a
// new prototype would pass it, the oldest are dropped; a later machine on
// their key warms the prototype again, with the same result.
const maxProtoBytes = 32 << 20

var warmCache struct {
	sync.Mutex
	protos map[warmKey]*mem.Hierarchy
	order  []warmKey // insertion order, oldest first
	bytes  int       // Footprint summed over protos
}

// warmHierarchy returns a pre-warmed hierarchy for the program and
// configuration: a copy of the key's prototype, made in spare's arrays where
// their geometry matches (spare may be nil).
func warmHierarchy(p *isa.Program, cfg mem.Config, spare *mem.Hierarchy) (*mem.Hierarchy, error) {
	proto, err := warmProto(warmKey{cfg: cfg, textLen: len(p.Instrs)})
	if err != nil {
		return nil, err
	}
	// Prototypes are never written once stored, so the copy needs no lock.
	return proto.CloneInto(spare), nil
}

// warmProto returns the key's prototype, warming and storing it on first use.
func warmProto(key warmKey) (*mem.Hierarchy, error) {
	warmCache.Lock()
	defer warmCache.Unlock()
	if proto, ok := warmCache.protos[key]; ok {
		return proto, nil
	}
	hier, err := mem.NewHierarchy(key.cfg)
	if err != nil {
		return nil, err
	}
	// Warm the caches to steady state: the paper measures whole
	// MinneSPEC runs where cold misses are negligible; our runs are
	// short enough that they would otherwise dominate. The
	// instruction side covers the text segment; the data side
	// pre-touches the first megabyte of the data space, so only
	// footprints larger than the L2 (the genuinely memory-bound
	// benchmarks) keep missing to memory.
	for i := 0; i < key.textLen; i += 8 {
		hier.AccessI(instrAddr(i))
	}
	for off := uint64(0); off < 1<<20; off += 64 {
		hier.AccessD(isa.DataBase + off)
	}
	if warmCache.protos == nil {
		warmCache.protos = map[warmKey]*mem.Hierarchy{}
	}
	size := hier.Footprint()
	for len(warmCache.order) > 0 && warmCache.bytes+size > maxProtoBytes {
		old := warmCache.order[0]
		warmCache.order = warmCache.order[1:]
		warmCache.bytes -= warmCache.protos[old].Footprint()
		delete(warmCache.protos, old)
	}
	warmCache.protos[key] = hier
	warmCache.order = append(warmCache.order, key)
	warmCache.bytes += size
	return hier, nil
}
