package uarch

import "braid/internal/isa"

// source is one register-carried dependence of a dynamic instruction.
type source struct {
	producer *dyn // nil: value available from architectural state
	internal bool // satisfied from a BEU's internal register file
}

// dyn is one dynamic instruction flowing through the timing model. Its
// functional effects (branch outcome, memory address) were computed by the
// front end at fetch; the timing fields are filled in as it advances.
// Records are recycled through the machine's arena once retired and
// unreferenced, so the steady-state hot loop performs no heap allocation.
type dyn struct {
	seq  uint64
	idx  int // static instruction index
	in   *isa.Instruction
	addr uint64 // memory address (loads/stores)

	isLoad, isStore, isBranch bool
	taken                     bool
	mispredicted              bool

	braidStart bool
	braidID    uint64 // braid core: which braid this instruction belongs to
	beu        int    // braid core: owning BEU
	sched      int    // out-of-order: scheduler; dep-steer: FIFO

	srcs    [3]source
	nsrcs   int
	extSrcs int32 // external sources among srcs (rename bandwidth), fixed at fetch

	hasExtDest bool // writes the external register file
	hasIntDest bool // writes a BEU-internal register

	// Opcode metadata cached at fetch so the issue loop never re-derives
	// it from the static instruction.
	exLat      uint64 // functional-unit latency (non-memory operations)
	memBytes   uint64 // access width in bytes (loads/stores)
	aliasClass uint32 // compiler alias class (0: may alias anything)

	fetchCycle    uint64
	dispatchReady uint64
	dispatchCycle uint64
	dispatched    bool

	issued     bool
	issueCycle uint64
	execDone   uint64 // functional-unit result ready
	wbSlot     uint64 // completion-calendar slot (max(execDone, issue+1))

	// wakeLB caches srcsReady's failure bound: sources cannot all be ready
	// before this cycle, so issue loops skip the full readiness check
	// until then. Sources blocked on an *event* (producer not yet issued
	// or not yet written back) park at neverWakes; the producer lowers its
	// consumers' bounds when the event happens (tryIssue, writebackOne).
	wakeLB uint64

	// consumers lists the instructions that name this one as a producer,
	// for the wakeLB lowering above. Entries may have already issued or
	// even been recycled; lowering a wake bound is always safe, so the
	// list is append-only and reset (capacity kept) on arena reuse.
	consumers []*dyn

	completed     bool
	completeCycle uint64 // external value written back (visible)
	bypassed      bool   // granted a bypass-network slot at writeback

	retired bool

	// Early-release bookkeeping for the external register file entry
	// (dead-value information, DESIGN.md §1): the entry frees when the
	// value is written back, every consumer has issued, and the next
	// writer of the register has been fetched.
	pendingReads int
	closed       bool // next writer of the register has been fetched
	entryFreed   bool

	// refs counts live pointers to this record from outside the pipeline
	// structures: one per not-yet-issued consumer that names it as a
	// producer, plus one per front-end owner-table slot. A record is
	// recycled when it has retired and refs reaches zero, so no stale
	// pointer can ever observe a reused record.
	refs int32
}

// dynArenaChunk batches arena growth; after warm-up the free list recycles
// and the hot loop never allocates.
const dynArenaChunk = 256

// allocDyn hands out a recycled record from the free list, falling back to
// the current chunk. Recycled records are NOT zeroed wholesale: reset clears
// exactly the fields some reader consults before the pipeline writes them.
// Every other field is dead until overwritten — buildDyn assigns the identity
// and fetch-stage fields unconditionally, dispatch/issue/writeback assign
// their timestamps before anything reads them, and the memBytes/aliasClass
// vs. exLat split is only read behind the isLoad/isStore flags that select
// which of them buildDyn populated. The golden-stats test pins this contract.
//
// A chunk record gets the same reset: a recycled machine's chunks hold its
// last run's records, retired or still in flight when that run stopped. Such
// a record may also still count references (from owner slots, or from
// consumers that never issued), which a free-list record never does.
func (m *Machine) allocDyn() *dyn {
	if n := len(m.freeDyns); n > 0 {
		d := m.freeDyns[n-1]
		m.freeDyns = m.freeDyns[:n-1]
		d.reset()
		return d
	}
	if len(m.dynChunk) == 0 {
		m.nextChunk()
	}
	d := &m.dynChunk[0]
	m.dynChunk = m.dynChunk[1:]
	d.reset()
	d.refs = 0
	return d
}

// nextChunk moves the arena to its next chunk: the next one a recycled
// machine kept, or else a new one.
func (m *Machine) nextChunk() {
	if m.carved < len(m.chunks) {
		m.dynChunk = m.chunks[m.carved]
		m.carved++
		return
	}
	chunk := make([]dyn, dynArenaChunk)
	// Carve every record's initial consumer capacity from one backing
	// array (full slice expressions keep the segments from bleeding into
	// each other); append only allocates for high-fanout values, and the
	// grown capacity is then retained across recycles.
	backing := make([]*dyn, 4*dynArenaChunk)
	for i := range chunk {
		chunk[i].consumers = backing[4*i : 4*i : 4*i+4]
	}
	m.chunks = append(m.chunks, chunk)
	m.dynChunk = chunk
	m.carved++
}

// reset clears the fields whose zero value is load-bearing across recycles;
// see allocDyn. srcs entries need no clearing: issue nils every producer
// pointer (the arena invariant), and slots are re-assigned whole up to nsrcs.
func (d *dyn) reset() {
	d.mispredicted = false
	d.nsrcs = 0
	d.extSrcs = 0
	d.hasExtDest = false
	d.hasIntDest = false
	d.dispatched = false
	d.issued = false
	d.wakeLB = 0
	d.consumers = d.consumers[:0]
	d.completed = false
	d.bypassed = false
	d.retired = false
	d.pendingReads = 0
	d.closed = false
	d.entryFreed = false
}

// decRef drops one reference; the record returns to the arena once it has
// also retired (retire itself recycles records that are already unreferenced).
func (m *Machine) decRef(d *dyn) {
	d.refs--
	if d.refs == 0 && d.retired {
		m.freeDyns = append(m.freeDyns, d)
	}
}

// latencyClass returns the functional-unit latency for a class under cfg
// (memory handled separately); it seeds Machine.latTab.
func latencyClass(cfg *Config, c isa.Class) int {
	switch c {
	case isa.ClassIntALU, isa.ClassNop, isa.ClassBranch:
		return cfg.LatIntALU
	case isa.ClassIntMul:
		return cfg.LatIntMul
	case isa.ClassIntDiv:
		return cfg.LatIntDiv
	case isa.ClassFPAdd:
		return cfg.LatFPAdd
	case isa.ClassFPMul:
		return cfg.LatFPMul
	case isa.ClassFPDiv:
		return cfg.LatFPDiv
	}
	return 1
}

// intReady reports whether an internal-file source from producer p can feed
// an issue at cycle t (internal writes forward directly inside the BEU).
func intReady(p *dyn, t uint64) bool {
	return p.issued && t >= p.execDone
}

// neverWakes marks an instruction whose readiness cannot change with the
// passage of time alone — it waits on another instruction issuing or writing
// back, both of which are separate fast-forward events.
const neverWakes = ^uint64(0)

// dynWake returns a lower bound on the earliest cycle after t at which d's
// time-gated source predicates could all pass, assuming no other machine
// state changes (the fast-forward invariant: during skipped cycles nothing
// issues, writes back, retires, dispatches, or fetches). Structural limits
// (ports, functional units) are irrelevant here: on an idle cycle every
// per-cycle resource counter is zero, so a source-ready instruction issues.
func (m *Machine) dynWake(d *dyn, t uint64) uint64 {
	wake := t + 1
	for i := 0; i < d.nsrcs; i++ {
		s := &d.srcs[i]
		p := s.producer
		if s.internal {
			if !p.issued {
				return neverWakes // wakes via its producer's issue
			}
			if p.execDone > wake {
				wake = p.execDone
			}
			continue
		}
		if p == nil || p.retired {
			continue // architectural state: always ready
		}
		if !p.completed {
			return neverWakes // wakes via the producer's writeback
		}
		if m.crossCluster(p, d) {
			if c := p.completeCycle + uint64(m.cfg.InterClusterDelay); c > wake {
				wake = c
			}
			continue
		}
		if p.bypassed && t+1 <= p.completeCycle+uint64(m.cfg.BypassLevels) {
			continue // catchable on the bypass network right away
		}
		if c := p.completeCycle + uint64(m.cfg.ExtWakeupExtra); c > wake {
			wake = c
		}
	}
	if d.isLoad && wake <= t+1 {
		// Source-ready load: it still cannot issue while an older store
		// with an unknown address may alias it, and that store issuing is
		// itself a fast-forward event.
		for i := 0; i < m.stores.len(); i++ {
			s := m.stores.at(i)
			if s.seq >= d.seq {
				break
			}
			if !s.issued && mayAlias(d, s) {
				return neverWakes
			}
		}
	}
	return wake
}
