package uarch

import "braid/internal/isa"

// textBase is the virtual address of the text segment; each BRD64
// instruction occupies 8 bytes for instruction-cache purposes.
const textBase = 0x1000

// frontend fetches the correct dynamic instruction stream from the program's
// shared trace, applying instruction-cache and branch-prediction timing. A
// mispredicted conditional branch stops fetch; the engine restarts it when the
// branch executes, after the configured redirect gap.
type frontend struct {
	prog *isa.Program
	rep  *replayEntry // the program's shared replay state
	meta []staticMeta // per-static-instruction decode metadata
	tr   *trace       // the shared dynamic stream, as far as this run has seen it
	cur  cursor       // next trace instruction to fetch
	miss bitset       // conditional branches this geometry mispredicts in tr (nil: none)

	queue    dynRing // fetched, awaiting dispatch
	queueCap int

	done         bool   // HALT fetched
	stalledOn    *dyn   // mispredicted branch blocking fetch
	blockedUntil uint64 // icache miss fill time
	lastLine     uint64
	haveLine     bool

	// Owner tables for dependence construction at fetch time.
	extOwner [isa.NumArchRegs]*dyn
	intOwner [isa.NumInternalRegs]*dyn
}

// predGeom is a perceptron geometry: weight-table entries and history bits.
type predGeom struct{ entries, hist int }

// predGeometry resolves the configuration's perceptron geometry. The fields
// default to Table 4's 512-entry, 64-bit-history perceptron when zero so
// canonical configurations keep their golden results.
func predGeometry(cfg *Config) predGeom {
	g := predGeom{cfg.PredEntries, cfg.PredHistory}
	if g.entries == 0 {
		g.entries = 512
	}
	if g.hist == 0 {
		g.hist = 64
	}
	return g
}

// noTrace is every front end's trace until its first fetch grows the shared
// one; nothing writes through a front end's trace pointer.
var noTrace trace

// newFrontend builds the front end in fe, a recycled one, or in a new one
// when fe is nil.
func newFrontend(p *isa.Program, cfg *Config, fe *frontend) *frontend {
	if fe == nil {
		fe = &frontend{}
	}
	e := replayFor(p)
	*fe = frontend{
		prog:  p,
		rep:   e,
		meta:  e.metaOf(p),
		tr:    &noTrace,
		queue: dynRing{buf: fe.queue.buf},
		// The fetch-to-dispatch buffer must cover the front end's
		// bandwidth-delay product (instructions are in flight for
		// FrontDepth cycles before dispatch) or it, rather than the
		// modeled resources, becomes the IPC ceiling.
		queueCap: cfg.FetchWidth * (cfg.FrontDepth + 4),
	}
	return fe
}

func instrAddr(idx int) uint64 { return textBase + uint64(idx)*8 }

// fetch runs one front-end cycle at time t.
func (fe *frontend) fetch(m *Machine, t uint64) {
	if fe.done || fe.stalledOn != nil || t < fe.blockedUntil {
		return
	}
	cfg := &m.cfg
	branches := 0
	for n := 0; n < cfg.FetchWidth; n++ {
		if fe.queue.len() >= fe.queueCap {
			return
		}
		if fe.cur.pos >= fe.tr.n {
			// Past the trace this run holds: grow the shared one. Past
			// the last executed instruction is the end of program,
			// exactly where the interpreter returns an error.
			fe.tr, fe.miss, _ = fe.rep.upTo(fe.prog, fe.cur.pos, cfg)
			if fe.cur.pos >= fe.tr.n {
				fe.done = true
				return
			}
		}
		pc := fe.cur.pc
		addr := instrAddr(pc)
		line := addr >> 6
		if !fe.haveLine || line != fe.lastLine {
			lat := m.hier.AccessI(addr)
			fe.lastLine, fe.haveLine = line, true
			if lat > cfg.Mem.L1I.Latency {
				// Miss: the line arrives later; re-fetch then.
				fe.blockedUntil = t + uint64(lat)
				m.stats.ICacheMissCycles += uint64(lat)
				return
			}
		}

		_, taken, maddr := fe.cur.next(fe.tr, fe.meta)
		d := fe.buildDyn(m, pc, maddr, taken, t)
		fe.queue.push(d)
		m.stats.Fetched++

		sm := &fe.meta[d.idx]
		if sm.isHalt {
			fe.done = true
			return
		}
		if d.isBranch {
			branches++
			if sm.isCondBranch {
				m.stats.CondBranches++
				// cur.br has just moved past this branch.
				if fe.miss != nil && fe.miss.has(fe.cur.br-1) {
					d.mispredicted = true
					m.stats.Mispredicts++
					fe.stalledOn = d
					return
				}
			}
			if d.taken {
				// A taken branch redirects fetch: the rest of this
				// cycle's fetch slots are lost, as in any real front
				// end (the 3-branch throughput of Table 4 applies to
				// the not-taken branches within a fetch group).
				return
			}
			if branches >= cfg.FetchBranches {
				return
			}
		}
	}
}

// buildDyn wires the dependence edges using the owner tables. Records come
// from the machine's arena; every producer pointer stored (sources and owner
// slots) takes a reference so the producer cannot recycle underneath it.
func (fe *frontend) buildDyn(m *Machine, idx int, addr uint64, taken bool, t uint64) *dyn {
	sm := &fe.meta[idx]
	m.seq++
	d := m.allocDyn()
	d.seq = m.seq
	d.idx = idx
	d.in = &fe.prog.Instrs[idx]
	d.addr = addr
	d.isLoad = sm.isLoad
	d.isStore = sm.isStore
	d.isBranch = sm.isBranch
	d.taken = taken
	d.braidStart = sm.braidStart
	d.beu = -1
	d.sched = -1
	d.fetchCycle = t
	d.dispatchReady = t + uint64(m.cfg.FrontDepth)
	if sm.isLoad || sm.isStore {
		d.memBytes = uint64(sm.memBytes)
		d.aliasClass = uint32(sm.aliasClass)
	} else {
		d.exLat = m.latTab[sm.class]
	}
	if d.braidStart {
		// Internal values never cross braid boundaries (§3.4).
		for i, p := range fe.intOwner {
			if p != nil {
				fe.intOwner[i] = nil
				m.decRef(p)
			}
		}
	}

	addSrc := func(p *dyn, internal bool) {
		if p == nil {
			return // architectural state: always ready
		}
		d.srcs[d.nsrcs] = source{producer: p, internal: internal}
		d.nsrcs++
		if !internal {
			d.extSrcs++
			if !p.retired {
				p.pendingReads++
			}
		}
		p.refs++
		p.consumers = append(p.consumers, d)
	}
	switch sm.s1Kind {
	case srcInt:
		addSrc(fe.intOwner[sm.s1Idx], true)
	case srcExt:
		addSrc(fe.extOwner[sm.s1Idx], false)
	}
	switch sm.s2Kind {
	case srcInt:
		addSrc(fe.intOwner[sm.s2Idx], true)
	case srcExt:
		addSrc(fe.extOwner[sm.s2Idx], false)
	}
	if sm.s3Kind == srcExt {
		// Conditional moves read their old destination from the
		// external file (the braid ISA has no T bit for it).
		addSrc(fe.extOwner[sm.s3Idx], false)
	}

	if sm.hasExtDest {
		d.hasExtDest = true
		if old := fe.extOwner[sm.extDest]; old != nil {
			old.closed = true
			m.tryEarlyRelease(old)
			m.decRef(old)
		}
		fe.extOwner[sm.extDest] = d
		d.refs++
	}
	if sm.hasIntDest {
		d.hasIntDest = true
		if old := fe.intOwner[sm.intDest]; old != nil {
			m.decRef(old)
		}
		fe.intOwner[sm.intDest] = d
		d.refs++
	}
	return d
}

// extSrcCount is the number of external source operands (rename bandwidth),
// counted once when the dependence edges were wired.
func (d *dyn) extSrcCount() int { return int(d.extSrcs) }
