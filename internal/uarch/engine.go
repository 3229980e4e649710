package uarch

import (
	"context"
	"fmt"

	"braid/internal/isa"
	"braid/internal/mem"
)

// core is one execution-core paradigm: it owns dispatch structure (windows,
// FIFOs, BEUs) and per-cycle instruction selection. The engine owns operand
// readiness, register-file ports and occupancy, the bypass network, the
// functional-unit pool, the LSQ, retirement, and the front end.
type core interface {
	// canAccept reports whether one more instruction can be dispatched
	// this cycle (called in program order; dispatch stops at the first
	// refusal).
	canAccept(d *dyn) bool
	// dispatch inserts the instruction into the core's structures.
	dispatch(d *dyn)
	// issue selects and issues instructions for cycle t by calling
	// m.tryIssue on candidates, respecting the core's structural rules.
	issue(m *Machine, t uint64)
	// nextWake returns a lower bound on the earliest cycle after t at
	// which any instruction the core examines for issue could become
	// source-ready through the passage of time alone (neverWakes if
	// none can). It must not mutate core state; fast-forward consults it
	// on provably idle cycles.
	nextWake(m *Machine, t uint64) uint64
}

// Stats accumulates one run's results.
type Stats struct {
	Cycles  uint64
	Retired uint64
	Fetched uint64

	CondBranches uint64
	Mispredicts  uint64
	Loads        uint64
	StoreCount   uint64
	Exceptions   uint64

	ICacheMissCycles uint64
	IssueStalls      uint64 // tryIssue rejections (any reason)

	// Utilization diagnostics.
	IdleCycles       uint64 // cycles with no instruction issued
	FetchStallCycles uint64 // cycles fetch was blocked on a misprediction
	robOccupancySum  uint64
	issuedSum        uint64
	RFEntryStalls    uint64 // writebacks delayed by a full register file
	PortStalls       uint64 // issues blocked on read ports
	WritePortStalls  uint64 // writebacks delayed by exhausted write ports
	BypassDenied     uint64 // writebacks that missed a bypass slot
	RFPeak           int
}

// IPC is retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// MeanROBOccupancy is the average number of in-flight instructions.
func (s *Stats) MeanROBOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.robOccupancySum) / float64(s.Cycles)
}

// MispredictRate is per conditional branch.
func (s *Stats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

// Machine is one configured simulation of one program.
type Machine struct {
	cfg  Config
	prog *isa.Program
	fe   *frontend
	cre  core
	hier *mem.Hierarchy

	rob    dynRing // in flight, in fetch order
	stores dynRing // in-flight stores for the LSQ, in fetch order

	// Completion calendar: issued instructions await writeback in a ring of
	// per-cycle buckets indexed by completion cycle (a calendar queue —
	// push and pop are O(1), with no comparison-sort cost). The ring spans
	// more cycles than any issue-to-completion latency, so a bucket never
	// mixes cycles; it doubles in the rare case a latency outgrows it.
	// Results blocked on register-file entries or write ports retry from
	// wbstall (kept in seq order); wbnext is that list's rebuild scratch.
	wbcal   [][]*dyn
	wbMask  uint64
	wbCount int
	wbstall []*dyn
	wbnext  []*dyn // scratch for the next stall list

	// dyn arena (see allocDyn): retired, unreferenced records recycle.
	freeDyns []*dyn
	dynChunk []dyn   // the uncarved rest of the current chunk
	chunks   [][]dyn // every chunk, in carving order (a recycled machine carves them again)
	carved   int     // how many of chunks the arena has moved on to

	// wakeMin caches, per issue structure (out-of-order scheduler or BEU,
	// indexed by dyn.sched), a lower bound on the earliest cycle any of its
	// entries could issue: the issue loop skips a whole structure while
	// wakeMin > now. A complete no-issue scan raises it to the minimum of
	// the entries' wake bounds; dispatching into, issuing from, or waking a
	// consumer inside a structure lowers it again. Nil for cores whose
	// issue loops examine too few candidates to be worth caching.
	wakeMin []uint64

	// latTab maps a functional-unit class (staticMeta.class) to its
	// configured latency, so buildDyn indexes instead of switching.
	latTab [16]uint64

	seq   uint64
	cycle uint64

	rfUsed          int
	readPortsUsed   int
	writePortsUsed  int
	bypassUsed      int
	fusUsed         int
	issuedThisCycle int

	stats Stats

	onRetire func(RetireEvent) // SimulateObserved's observer, or nil

	// §3.4 exception-mode state.
	sinceException uint64
	draining       bool
	serializedLeft int

	// injected latches Config.fault once it has corrupted its target.
	injected bool
}

// newMachine wires a machine around an already-built memory hierarchy; cfg
// must be validated. Sampled simulation uses it to hand detailed measurement
// intervals the functionally warmed hierarchy of its warmer.
// shell, when not nil, is a recycled machine (pool.go) whose memory the new
// one reuses.
func newMachine(p *isa.Program, cfg Config, hier *mem.Hierarchy, shell *Machine) (*Machine, error) {
	m := shell
	if m == nil {
		m = &Machine{}
	}
	m.cfg, m.prog, m.hier = cfg, p, hier
	for c := range m.latTab {
		m.latTab[c] = uint64(latencyClass(&m.cfg, isa.Class(c)))
	}
	m.fe = newFrontend(p, &m.cfg, m.fe)
	units := 0 // issue structures with a wakeMin entry
	switch cfg.Core {
	case CoreOutOfOrder:
		m.cre = newOOOCore(&m.cfg, m.cre)
		units = cfg.Schedulers
	case CoreInOrder:
		m.cre = newInOrderCore(&m.cfg, m.cre)
	case CoreDepSteer:
		m.cre = newDepSteerCore(&m.cfg, m.cre)
	case CoreBraid:
		m.cre = newBraidCore(&m.cfg, m.cre)
		units = cfg.BEUs
	default:
		return nil, fmt.Errorf("uarch: unknown core kind %d", cfg.Core)
	}
	if units > 0 {
		m.wakeMin = resized(m.wakeMin, units)
		clear(m.wakeMin)
	} else {
		m.wakeMin = nil
	}
	if span := calSpan(&m.cfg); uint64(len(m.wbcal)) == span {
		m.wbMask = span - 1 // a recycled calendar, its buckets empty
	} else {
		m.wbcal = nil // calPush sizes it
	}
	return m, nil
}

// step simulates one machine cycle — plus any provably idle cycles
// fast-forward can skip — and reports whether the program has completed.
func (m *Machine) step() bool {
	t := m.cycle
	m.resetCycle()
	m.writeback(t)
	m.retire(t)
	m.cre.issue(m, t)
	m.dispatch(t)
	m.fe.fetch(m, t)
	if f := m.cfg.fault; f != nil && !m.injected && t >= f.at {
		m.injected = f.apply(m)
	}
	if m.cfg.Paranoid {
		m.checkInvariants(t)
	}
	if m.issuedThisCycle == 0 {
		m.stats.IdleCycles++
	}
	if m.fe.stalledOn != nil {
		m.stats.FetchStallCycles++
	}
	m.stats.robOccupancySum += uint64(m.rob.len())
	m.stats.issuedSum += uint64(m.issuedThisCycle)
	m.cycle = t + 1
	if m.fe.done && m.rob.len() == 0 && m.fe.queue.len() == 0 {
		return true
	}
	if m.issuedThisCycle == 0 && !m.cfg.NoFastForward {
		m.fastForward(t)
	}
	return false
}

// fastForward jumps the clock over cycles that are provably no-ops for every
// pipeline stage, batch-accounting the per-cycle statistics the skipped
// cycles would have recorded (IdleCycles, FetchStallCycles, ROB occupancy).
// It runs only after a cycle that issued nothing, so every per-cycle resource
// counter is zero and the cores' issue passes were complete (no early exits),
// leaving core state settled. The invariants DESIGN.md documents:
//
//   - writeback: nothing in wbstall (stalled results retry every cycle); the
//     next completion is the first occupied calendar bucket.
//   - retire: the ROB head is incomplete (a complete head retires next cycle)
//     and completes only at a writeback event.
//   - issue: no examined instruction can become source-ready before
//     core.nextWake's bound; structural rejections cannot flip on an idle
//     cycle because per-cycle counters reset to zero.
//   - dispatch: blocked on the ROB, the core, or single-instruction
//     allocate/rename bounds — stable until a writeback/retire event — or on
//     dispatchReady, an explicit event.
//   - fetch: done, stalled on a mispredict (cleared only by that branch's
//     writeback), blocked until an explicit cycle, or the queue is full
//     (stable while dispatch is blocked).
func (m *Machine) fastForward(t uint64) {
	// Writeback-stalled results normally pin the clock (they retry every
	// cycle), but a fully frozen register-file plateau is itself skippable:
	// with the file full, no retirement possible (incomplete ROB head that
	// is not itself awaiting writeback — the oldest-instruction exemption
	// would grant it), and at least one write port configured, every
	// stalled entry re-blocks identically each cycle, adding exactly one
	// RFEntryStalls per entry per cycle until the next event.
	stallPerCycle := uint64(0)
	if len(m.wbstall) > 0 {
		if m.rfUsed < m.cfg.RFEntries || m.cfg.RFWritePorts <= 0 {
			return
		}
		h := m.rob.front()
		if h.issued && !h.completed && h.execDone <= t {
			return // head grants next cycle via the oldest exemption
		}
		stallPerCycle = uint64(len(m.wbstall))
	}
	if m.rob.len() > 0 && m.rob.front().completed {
		return
	}
	if m.draining && m.rob.len() == 0 {
		return // dispatch restores the exception checkpoint next cycle
	}
	next := m.cre.nextWake(m, t)
	if !m.draining && m.fe.queue.len() > 0 {
		h := m.fe.queue.front()
		switch {
		case h.dispatchReady > t+1:
			if h.dispatchReady < next {
				next = h.dispatchReady
			}
		case m.rob.len() < m.cfg.ROB && m.cre.canAccept(h) && !m.allocBound(h):
			return // dispatch moves it next cycle
		}
	}
	if !m.fe.done && m.fe.stalledOn == nil && m.fe.queue.len() < m.fe.queueCap {
		if m.fe.blockedUntil > t+1 {
			if m.fe.blockedUntil < next {
				next = m.fe.blockedUntil
			}
		} else {
			return // fetch proceeds next cycle
		}
	}
	if m.wbCount > 0 {
		// The next completion bounds the skip too. Scanning calendar
		// buckets up to the earliest other event costs at most one probe
		// per cycle actually skipped; pending slots all lie within one
		// span of t, so a full-span scan is exhaustive.
		limit := t + m.wbMask + 1
		if next < limit {
			limit = next
		}
		for c := t + 1; c <= limit; c++ {
			if len(m.wbcal[c&m.wbMask]) > 0 {
				next = c
				break
			}
		}
	}
	if next > m.cfg.MaxCycles {
		// No event inside the budget: land on it so Run reports the wedge
		// immediately instead of crawling to it one cycle at a time.
		next = m.cfg.MaxCycles
	}
	if next <= t+1 {
		return
	}
	skipped := next - (t + 1)
	m.stats.IdleCycles += skipped
	if m.fe.stalledOn != nil {
		m.stats.FetchStallCycles += skipped
	}
	m.stats.robOccupancySum += skipped * uint64(m.rob.len())
	m.stats.RFEntryStalls += skipped * stallPerCycle
	m.cycle = next
}

// allocBound reports whether d alone exceeds the per-cycle allocate/rename
// bandwidth, which blocks dispatch permanently (no event changes it).
func (m *Machine) allocBound(d *dyn) bool {
	if d.hasExtDest && m.cfg.AllocWidth < 1 {
		return true
	}
	return d.extSrcCount() > m.cfg.RenameSrc
}

func (m *Machine) resetCycle() {
	m.readPortsUsed = 0
	m.writePortsUsed = 0
	m.bypassUsed = 0
	m.fusUsed = 0
	m.issuedThisCycle = 0
}

// writeback processes issued instructions whose functional units have
// produced a result. External-destination results need a register-file
// entry and a write port; they retry every cycle until granted (oldest
// first). Everything else completes unconditionally.
func (m *Machine) writeback(t uint64) {
	var due []*dyn
	if m.wbCount > 0 {
		due = m.wbcal[t&m.wbMask]
	}
	if len(m.wbstall) == 0 {
		switch len(due) {
		case 0:
			return
		case 1:
			// Overwhelmingly common: one completion, nothing stalled.
			d := due[0]
			if m.writebackOne(d, t) {
				m.wbstall = append(m.wbstall, d)
			}
			m.wbCount--
			m.wbcal[t&m.wbMask] = due[:0]
			return
		}
	}
	// The due bucket holds exactly this cycle's completions, in issue
	// order; restore pure age order (the batch is small, so an insertion
	// sort is cheapest).
	for i := 1; i < len(due); i++ {
		d := due[i]
		j := i
		for j > 0 && due[j-1].seq > d.seq {
			due[j] = due[j-1]
			j--
		}
		due[j] = d
	}
	// Merge the due batch with earlier stalled results (both in seq order)
	// so grants go strictly oldest first, as before.
	stall := m.wbnext[:0]
	si, di := 0, 0
	for si < len(m.wbstall) || di < len(due) {
		var d *dyn
		if di >= len(due) || (si < len(m.wbstall) && m.wbstall[si].seq < due[di].seq) {
			d = m.wbstall[si]
			si++
		} else {
			d = due[di]
			di++
		}
		if m.writebackOne(d, t) {
			stall = append(stall, d)
		}
	}
	m.wbnext = m.wbstall[:0]
	m.wbstall = stall
	if len(due) > 0 {
		m.wbCount -= len(due)
		m.wbcal[t&m.wbMask] = due[:0]
	}
}

// writebackOne completes one due result; it reports true when the result is
// blocked on a register-file entry or write port and must retry.
func (m *Machine) writebackOne(d *dyn, t uint64) (blocked bool) {
	if d.hasExtDest {
		// The oldest in-flight instruction may always take an entry
		// (transiently exceeding the limit) — otherwise younger completed
		// values waiting to retire behind it would deadlock the machine.
		oldest := m.rob.len() > 0 && m.rob.front() == d
		if (m.rfUsed >= m.cfg.RFEntries && !oldest) || m.writePortsUsed >= m.cfg.RFWritePorts {
			if m.rfUsed >= m.cfg.RFEntries && !oldest {
				m.stats.RFEntryStalls++
			}
			if m.writePortsUsed >= m.cfg.RFWritePorts {
				m.stats.WritePortStalls++
			}
			return true
		}
		m.rfUsed++
		if m.rfUsed > m.stats.RFPeak {
			m.stats.RFPeak = m.rfUsed
		}
		m.writePortsUsed++
		if m.bypassUsed < m.cfg.BypassValues {
			m.bypassUsed++
			d.bypassed = true
		} else {
			m.stats.BypassDenied++
		}
	}
	d.completed = true
	d.completeCycle = t
	// The value is (or soon will be) visible: wake consumers parked on the
	// completion event. They re-derive any remaining delay when examined.
	for _, c := range d.consumers {
		if c.wakeLB > t {
			c.wakeLB = t
			m.noteWake(c, t)
		}
	}
	m.tryEarlyRelease(d)
	if d.mispredicted {
		// Redirect: fetch resumes after the configured gap.
		m.fe.stalledOn = nil
		m.fe.blockedUntil = t + 1 + m.cfg.redirectGap()
		m.fe.haveLine = false
	}
	return false
}

// calSpan sizes the completion calendar: the next power of two above the
// configuration's longest issue-to-completion latency (a main-memory load),
// so a bucket never mixes cycles. calGrow covers anything unforeseen.
func calSpan(cfg *Config) uint64 {
	maxLat := cfg.LatAGU + cfg.Mem.L1D.Latency + cfg.Mem.L2.Latency + cfg.Mem.MemLatency
	for _, l := range []int{cfg.LatIntALU, cfg.LatIntMul, cfg.LatIntDiv,
		cfg.LatFPAdd, cfg.LatFPMul, cfg.LatFPDiv} {
		if l > maxLat {
			maxLat = l
		}
	}
	span := uint64(64)
	for span < uint64(maxLat)+2 {
		span *= 2
	}
	return span
}

// calPush schedules d for writeback. A result due at or before the current
// cycle (zero-latency units) is processed next cycle, exactly as the former
// priority queue did: writeback runs before issue, so cycle t's batch was
// already taken when d issued.
func (m *Machine) calPush(d *dyn, t uint64) {
	slot := d.execDone
	if slot <= t {
		slot = t + 1
	}
	if m.wbcal == nil {
		span := calSpan(&m.cfg)
		m.wbcal = make([][]*dyn, span)
		m.wbMask = span - 1
		// Carve every bucket's initial capacity from one backing array;
		// append only allocates for the rare >4-completions-per-cycle
		// bucket (full capacity is retained when a bucket empties).
		backing := make([]*dyn, 4*span)
		for i := range m.wbcal {
			m.wbcal[i] = backing[4*i : 4*i : 4*i+4]
		}
	}
	for slot-t > m.wbMask {
		m.calGrow()
	}
	d.wbSlot = slot
	m.wbcal[slot&m.wbMask] = append(m.wbcal[slot&m.wbMask], d)
	m.wbCount++
}

// calGrow doubles the calendar when a completion lands beyond its span,
// re-bucketing pending entries under the wider mask.
func (m *Machine) calGrow() {
	old := m.wbcal
	next := make([][]*dyn, 2*len(old))
	mask := uint64(len(next) - 1)
	for _, b := range old {
		for _, d := range b {
			next[d.wbSlot&mask] = append(next[d.wbSlot&mask], d)
		}
	}
	m.wbcal = next
	m.wbMask = mask
}

// retire commits completed instructions in order, up to the retire width.
// Stores write the data cache at retirement; external register-file entries
// are released (the value is architecturally committed; DESIGN.md §1).
// Retired records return to the arena once nothing references them.
func (m *Machine) retire(t uint64) {
	width := m.cfg.RetireWidth
	n := 0
	for m.rob.len() > 0 && n < width {
		d := m.rob.front()
		if !d.completed || d.completeCycle > t {
			break
		}
		if d.isStore {
			m.hier.AccessD(d.addr)
			// Stores dispatch and retire in program order, so the
			// retiring store is always the LSQ head.
			if s := m.stores.popFront(); s != d {
				panic(fmt.Sprintf("uarch: cycle %d: retiring store seq %d is not the LSQ head (seq %d)", t, d.seq, s.seq))
			}
		}
		if d.hasExtDest && !d.entryFreed {
			d.entryFreed = true
			m.rfUsed--
		}
		d.retired = true
		if m.onRetire != nil {
			m.onRetire(RetireEvent{
				Seq:          d.seq,
				Index:        d.idx,
				Cycle:        t,
				Addr:         d.addr,
				MemBytes:     d.memBytes,
				Fetch:        d.fetchCycle,
				Dispatch:     d.dispatchCycle,
				Issue:        d.issueCycle,
				Done:         d.execDone,
				Writeback:    d.completeCycle,
				BEU:          d.beu,
				Taken:        d.taken,
				Mispredicted: d.mispredicted,
				IsLoad:       d.isLoad,
				IsStore:      d.isStore,
				IsBranch:     d.isBranch,
			})
		}
		m.rob.popFront()
		m.stats.Retired++
		n++
		if d.refs == 0 {
			m.freeDyns = append(m.freeDyns, d)
		}
		if m.cfg.ExceptionEvery > 0 {
			m.sinceException++
			if m.sinceException >= m.cfg.ExceptionEvery {
				m.sinceException = 0
				m.draining = true
				m.stats.Exceptions++
			}
		}
	}
}

// dispatch moves fetched instructions into the core, in order, limited by
// the allocate/rename bandwidth of Table 4 (only external destinations are
// allocated; only external sources are renamed). Exception handling (§3.4)
// first drains the machine, restores the checkpoint (modeled as the
// misprediction penalty), and then serializes dispatch through one unit.
func (m *Machine) dispatch(t uint64) {
	if m.draining {
		if m.rob.len() > 0 {
			return // wait for the pipeline to empty
		}
		m.draining = false
		m.serializedLeft = m.cfg.ExceptionHandler
		if m.serializedLeft <= 0 {
			m.serializedLeft = 64
		}
		m.fe.blockedUntil = t + uint64(m.cfg.MispredictMin)
		if sz, ok := m.cre.(serializer); ok {
			sz.setSerialized(true)
		}
		return
	}
	allocUsed, renameUsed, moved := 0, 0, 0
	for m.fe.queue.len() > 0 && moved < m.cfg.FetchWidth {
		d := m.fe.queue.front()
		if d.dispatchReady > t || m.rob.len() >= m.cfg.ROB {
			return
		}
		needAlloc := 0
		if d.hasExtDest {
			needAlloc = 1
		}
		if allocUsed+needAlloc > m.cfg.AllocWidth || renameUsed+d.extSrcCount() > m.cfg.RenameSrc {
			return
		}
		if !m.cre.canAccept(d) {
			return
		}
		allocUsed += needAlloc
		renameUsed += d.extSrcCount()
		m.cre.dispatch(d)
		if m.wakeMin != nil && d.sched >= 0 {
			m.wakeMin[d.sched] = 0 // a new candidate entered the structure
		}
		d.dispatched = true
		d.dispatchCycle = t
		m.rob.push(d)
		if d.isStore {
			m.stores.push(d)
			m.stats.StoreCount++
		}
		if d.isLoad {
			m.stats.Loads++
		}
		m.fe.queue.popFront()
		moved++
		if m.serializedLeft > 0 {
			m.serializedLeft--
			if m.serializedLeft == 0 {
				if sz, ok := m.cre.(serializer); ok {
					sz.setSerialized(false)
				}
			}
		}
	}
}

// serializer is implemented by cores that support §3.4's exception mode.
type serializer interface{ setSerialized(bool) }

// srcsReady checks operand availability at cycle t and counts the external
// register-file read ports the issue would need (bypassed and internal
// operands are free). On failure, wake is a lower bound on the first cycle
// at which the blocking source could possibly be ready; the bound stays
// valid under any later event (an unissued producer yields t+1, i.e. "check
// again next cycle"; issued and completed producers yield fixed times), so
// callers may cache it and skip the check until then.
func (m *Machine) srcsReady(d *dyn, t uint64) (ports int, wake uint64, ok bool) {
	for i := 0; i < d.nsrcs; i++ {
		s := &d.srcs[i]
		p := s.producer
		if s.internal {
			if !p.issued {
				// Park until p issues; p lowers the bound then.
				return 0, neverWakes, false
			}
			if t < p.execDone {
				return 0, p.execDone, false
			}
			continue
		}
		if p == nil || p.retired {
			// Architectural state: needs a read port.
			ports++
			continue
		}
		if !p.completed || p.completeCycle > t {
			// Completion happens no earlier than the producer's
			// functional unit finishes (write-port stalls only push
			// it later); once that time has passed, the result is
			// blocked in writeback and the completion event itself
			// lowers the bound (writebackOne).
			if p.issued && t < p.execDone {
				return 0, p.execDone, false
			}
			return 0, neverWakes, false
		}
		if m.crossCluster(p, d) {
			// §5.2 clustering: a value crossing clusters pays the
			// inter-cluster delay and cannot be caught on the
			// producing cluster's bypass network. The wake bound is
			// only t+1: the producer may retire first, making the
			// value architectural (and port-readable) early.
			if t < p.completeCycle+uint64(m.cfg.InterClusterDelay) {
				return 0, t + 1, false
			}
			ports++
			continue
		}
		if p.bypassed && t <= p.completeCycle+uint64(m.cfg.BypassLevels) {
			continue // caught on the bypass network
		}
		if t < p.completeCycle+uint64(m.cfg.ExtWakeupExtra) {
			// Busy-bit propagation across units; t+1 for the same
			// retirement reason as above.
			return 0, t + 1, false
		}
		ports++
	}
	return ports, 0, true
}

// noteWake propagates a lowered wake bound to c's issue structure so the
// whole-structure skip in the issue loops stays sound (c may not be
// dispatched yet; its structure is then re-opened at dispatch).
func (m *Machine) noteWake(c *dyn, w uint64) {
	if m.wakeMin != nil && c.sched >= 0 && w < m.wakeMin[c.sched] {
		m.wakeMin[c.sched] = w
	}
}

// mightIssue is the issue loops' cheap pre-filter: when it returns false,
// tryIssue would provably fail without touching any counter or state, so the
// call can be skipped with bit-identical results. When the issue width or
// functional units are exhausted, tryIssue must run anyway — it counts an
// IssueStall on that path.
func (m *Machine) mightIssue(d *dyn, t uint64) bool {
	return t >= d.wakeLB ||
		m.issuedThisCycle >= m.cfg.IssueWidth || m.fusUsed >= m.cfg.TotalFUs
}

// crossCluster reports whether a value produced by p crosses a cluster
// boundary to reach d (braid core with clustering enabled only).
func (m *Machine) crossCluster(p, d *dyn) bool {
	if m.cfg.Clusters <= 1 || p.beu < 0 || d.beu < 0 {
		return false
	}
	per := m.cfg.BEUs / m.cfg.Clusters
	if per <= 0 {
		return false
	}
	return p.beu/per != d.beu/per
}

// tryIssue attempts to issue d at cycle t, honoring the global issue width,
// the functional-unit pool, operand readiness, register-file read ports, and
// the load-store queue. On success the completion time is scheduled.
func (m *Machine) tryIssue(d *dyn, t uint64) bool {
	if d.issued {
		return false
	}
	if m.issuedThisCycle >= m.cfg.IssueWidth || m.fusUsed >= m.cfg.TotalFUs {
		m.stats.IssueStalls++
		return false
	}
	ports, wake, ok := m.srcsReady(d, t)
	if !ok {
		d.wakeLB = wake
		return false
	}
	if ports > m.cfg.RFReadPorts {
		// An instruction needing more operands than the file has ports
		// collects them over several cycles; approximate by letting it
		// monopolize a full cycle's read bandwidth (otherwise a
		// three-source conditional move could deadlock a two-port
		// machine).
		ports = m.cfg.RFReadPorts
	}
	if m.readPortsUsed+ports > m.cfg.RFReadPorts {
		m.stats.PortStalls++
		return false
	}

	var execDone uint64
	switch {
	case d.isLoad:
		done, ok := m.issueLoad(d, t)
		if !ok {
			return false
		}
		execDone = done
	case d.isStore:
		execDone = t + uint64(m.cfg.LatAGU)
	default:
		execDone = t + d.exLat
	}

	m.readPortsUsed += ports
	m.fusUsed++
	m.issuedThisCycle++
	d.issued = true
	d.issueCycle = t
	d.execDone = execDone
	// Wake consumers parked on this issue: none can be ready before the
	// result exists (internal values forward at execDone; external values
	// complete no earlier).
	for _, c := range d.consumers {
		if c.wakeLB > execDone {
			c.wakeLB = execDone
			m.noteWake(c, execDone)
		}
	}
	// The issue moves this structure's window/selection state: re-examine
	// it from the next cycle regardless of cached wake bounds.
	if m.wakeMin != nil && d.sched >= 0 {
		m.wakeMin[d.sched] = 0
	}
	// The issue consumed its operands: dead values may free their
	// register-file entries (dead-value early release, DESIGN.md §1), and
	// this instruction drops its producer references — sources are never
	// consulted after issue, which is what lets producers recycle.
	for i := 0; i < d.nsrcs; i++ {
		s := &d.srcs[i]
		p := s.producer
		if p == nil {
			continue
		}
		if !s.internal && !p.retired {
			p.pendingReads--
			m.tryEarlyRelease(p)
		}
		m.decRef(p)
		s.producer = nil
	}
	m.calPush(d, t)
	return true
}

// tryEarlyRelease frees p's external register-file entry once the value is
// provably dead: written back, all fetched consumers issued, and the next
// writer of the architectural register fetched (the compiler's dead-value
// assertion). Branch recovery needs no entry either way because checkpoints
// repair the map, per the paper's §3.4.
func (m *Machine) tryEarlyRelease(p *dyn) {
	if !m.cfg.DeadValueRelease {
		return
	}
	if p.entryFreed || !p.hasExtDest || !p.completed || !p.closed || p.pendingReads > 0 || p.retired {
		return
	}
	p.entryFreed = true
	m.rfUsed--
}

// issueLoad applies the LSQ rules: a load may issue once every older store
// that could alias it (per the compiler's alias classes) has computed its
// address; an overlapping in-flight store forwards its data.
func (m *Machine) issueLoad(d *dyn, t uint64) (uint64, bool) {
	var fwd *dyn
	for i, ns := 0, m.stores.len(); i < ns; i++ {
		s := m.stores.at(i)
		if s.seq >= d.seq {
			break
		}
		if !s.issued {
			if mayAlias(d, s) {
				return 0, false // older store address unknown
			}
			continue
		}
		if s.addr < d.addr+d.memBytes && d.addr < s.addr+s.memBytes {
			fwd = s // youngest overlapping store wins
		}
	}
	agu := t + uint64(m.cfg.LatAGU)
	if fwd != nil {
		done := agu + 1
		if fwd.execDone+1 > done {
			done = fwd.execDone + 1
		}
		return done, true
	}
	return agu + uint64(m.hier.AccessD(d.addr)), true
}

// mayAlias mirrors the braid compiler's static disambiguation.
func mayAlias(a, b *dyn) bool {
	if a.aliasClass == 0 || b.aliasClass == 0 {
		return true
	}
	return a.aliasClass == b.aliasClass
}

// Simulate runs program p on cfg: SimulateChecked without a context.
func Simulate(p *isa.Program, cfg Config) (*Stats, error) {
	return SimulateChecked(context.Background(), p, cfg)
}

// checkInvariants asserts per-cycle internal consistency; enabled by
// Config.Paranoid (tests). Violations panic: they are simulator bugs, never
// program behavior.
func (m *Machine) checkInvariants(t uint64) {
	if m.rfUsed < 0 || m.rfUsed > m.cfg.RFEntries+1 {
		panic(fmt.Sprintf("uarch: cycle %d: rfUsed %d out of range [0,%d+1]", t, m.rfUsed, m.cfg.RFEntries))
	}
	if m.readPortsUsed > m.cfg.RFReadPorts || m.writePortsUsed > m.cfg.RFWritePorts {
		panic(fmt.Sprintf("uarch: cycle %d: port counters exceed limits (%d/%d reads, %d/%d writes)",
			t, m.readPortsUsed, m.cfg.RFReadPorts, m.writePortsUsed, m.cfg.RFWritePorts))
	}
	if m.bypassUsed > m.cfg.BypassValues || m.fusUsed > m.cfg.TotalFUs || m.issuedThisCycle > m.cfg.IssueWidth {
		panic(fmt.Sprintf("uarch: cycle %d: execution counters exceed limits", t))
	}
	var prev uint64
	for i := 0; i < m.rob.len(); i++ {
		d := m.rob.at(i)
		if d.seq <= prev {
			panic(fmt.Sprintf("uarch: cycle %d: rob[%d] out of age order", t, i))
		}
		prev = d.seq
		if d.retired {
			panic(fmt.Sprintf("uarch: cycle %d: retired instruction still in rob", t))
		}
		if d.refs < 0 {
			panic(fmt.Sprintf("uarch: cycle %d: seq %d has negative refcount", t, d.seq))
		}
	}
	cal := 0
	for _, b := range m.wbcal {
		cal += len(b)
		for _, d := range b {
			if !d.issued || d.completed {
				panic(fmt.Sprintf("uarch: cycle %d: completion calendar holds seq %d issued=%v completed=%v",
					t, d.seq, d.issued, d.completed))
			}
		}
	}
	if cal != m.wbCount {
		panic(fmt.Sprintf("uarch: cycle %d: calendar count %d != %d", t, m.wbCount, cal))
	}
	for _, d := range m.wbstall {
		if !d.issued || d.completed {
			panic(fmt.Sprintf("uarch: cycle %d: writeback stall list holds seq %d issued=%v completed=%v",
				t, d.seq, d.issued, d.completed))
		}
	}
	prev = 0
	for i := 0; i < m.stores.len(); i++ {
		s := m.stores.at(i)
		if s.seq <= prev {
			panic(fmt.Sprintf("uarch: cycle %d: stores[%d] out of age order", t, i))
		}
		prev = s.seq
	}
	if bc, ok := m.cre.(*braidCore); ok {
		bc.checkInvariants(t)
	}
}
