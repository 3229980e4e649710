package uarch

import (
	"slices"
	"sync"

	"braid/internal/bpred"
	"braid/internal/interp"
	"braid/internal/isa"
)

// trace is one program's dynamic instruction stream in compact form. BRD64
// has only direct branches and the simulator is functionally directed, so
// the stream is fixed by the static program plus each dynamic conditional
// branch's outcome and each dynamic load or store's address; a cursor
// rebuilds the PC sequence from those. Its arrays hold no pointers, so cached
// traces cost the garbage collector nothing to scan.
type trace struct {
	n     int      // dynamic instructions
	taken bitset   // bit i: the i-th dynamic conditional branch was taken
	addrs []uint64 // effective address of each dynamic load and store, in order

	condBranches, loads, stores uint64
}

// bitset is a packed bit vector indexed from zero.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]>>(i&63)&1 != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }

// cursor is a position in a trace: the next dynamic instruction's index and
// static PC, and how many conditional branches and memory accesses precede
// it. The zero cursor is the program's first instruction.
type cursor struct {
	pos, pc, br, mem int
}

// next returns the dynamic instruction at the cursor — its static index,
// whether it is a taken branch, and its memory address (zero unless it is a
// load or store) — and advances past it. The caller checks pos < tr.n.
func (c *cursor) next(tr *trace, meta []staticMeta) (pc int, taken bool, addr uint64) {
	pc = c.pc
	sm := &meta[pc]
	c.pos++
	c.pc++
	switch {
	case sm.isCondBranch:
		taken = tr.taken.has(c.br)
		c.br++
	case sm.isBranch:
		taken = true
	case sm.isLoad || sm.isStore:
		addr = tr.addrs[c.mem]
		c.mem++
	}
	if taken {
		c.pc = int(sm.target)
	}
	return pc, taken, addr
}

// traceCap bounds pre-execution so a non-halting program cannot hang trace
// construction; such a program falls back to the live interpreter and runs
// into the engine's MaxCycles budget as before. It is a variable only so
// tests can push halting programs onto that fallback.
var traceCap = 1 << 26

// Source-operand kinds for staticMeta (where buildDyn finds each producer).
const (
	srcNone = iota // no register source in this slot
	srcInt         // BEU-internal file, owner table index srcIdx
	srcExt         // external file, architectural register srcIdx
)

// staticMeta is everything buildDyn derives from a static instruction,
// precomputed once per program so the per-fetch work is a handful of field
// copies and owner-table lookups instead of opcode-table dereferences.
type staticMeta struct {
	isLoad, isStore, isBranch bool
	isCondBranch, isHalt      bool
	braidStart                bool
	hasExtDest, hasIntDest    bool

	class      uint8 // functional-unit class (indexes Machine.latTab)
	memBytes   uint8
	aliasClass uint8

	s1Kind, s2Kind, s3Kind uint8 // third slot: conditional-move old dest
	s1Idx, s2Idx, s3Idx    uint8
	extDest, intDest       uint8 // valid when hasExtDest / hasIntDest

	target int32 // a branch's taken successor
}

// replayEntry is one program's cached replay state: its trace, its static
// metadata, and one mispredict set per predictor geometry. Each part is built
// at most once, under its own sync.Once, so interpreting one program never
// blocks a Machine that needs another program's trace or this program's
// metadata.
type replayEntry struct {
	traceOnce sync.Once
	trace     *trace
	metaOnce  sync.Once
	meta      []staticMeta

	predMu sync.Mutex // guards preds, not the sets it points to
	preds  map[predGeom]*mispredicts
}

// mispredicts records which of a trace's dynamic conditional branches one
// perceptron geometry mispredicts: bit i for the i-th.
type mispredicts struct {
	once  sync.Once
	bits  bitset
	count uint64
}

// replayCache maps each simulated program to its entry. The mutex guards
// only the map; building an entry's trace or metadata happens outside it.
var replayCache struct {
	sync.Mutex
	m map[*isa.Program]*replayEntry
}

func replayFor(p *isa.Program) *replayEntry {
	replayCache.Lock()
	defer replayCache.Unlock()
	e, ok := replayCache.m[p]
	if !ok {
		if replayCache.m == nil {
			replayCache.m = make(map[*isa.Program]*replayEntry)
		}
		e = &replayEntry{}
		replayCache.m[p] = e
	}
	return e
}

// ReleaseProgram drops p's cached replay trace, static metadata and
// mispredict sets, so a long-running process can bound the memory its
// simulations pin. A later simulation of p rebuilds them, bit-identically; a
// simulation already running keeps the copies it holds.
func ReleaseProgram(p *isa.Program) {
	replayCache.Lock()
	delete(replayCache.m, p)
	replayCache.Unlock()
}

// programTrace returns the program's dynamic instruction stream, computing
// and caching it on first use. The simulator is functionally directed, so the
// stream depends only on the program — every Machine simulating it under any
// configuration replays one shared trace instead of re-executing the
// interpreter. Returns nil (cached) if the program does not halt within
// traceCap steps.
func programTrace(p *isa.Program) *trace { return replayFor(p).traceOf(p) }

// programMeta returns the program's precomputed static metadata, computing
// and caching it on first use (shared by every Machine simulating p).
func programMeta(p *isa.Program) []staticMeta { return replayFor(p).metaOf(p) }

func (e *replayEntry) traceOf(p *isa.Program) *trace {
	e.traceOnce.Do(func() { e.trace = buildTrace(p, e.metaOf(p)) })
	return e.trace
}

func (e *replayEntry) metaOf(p *isa.Program) []staticMeta {
	e.metaOnce.Do(func() { e.meta = buildMeta(p) })
	return e.meta
}

// mispredictsOf returns which of the trace's conditional branches cfg's
// predictor mispredicts, and how many; nil and zero under PerfectBP. Fetch is
// the predictor's only client and it predicts, then trains, every
// conditional branch once in trace order under every core, so the outcome
// depends only on the program and the geometry: each geometry's set is
// computed once per program and shared by every Machine that simulates it.
// The trace must exist.
func (e *replayEntry) mispredictsOf(p *isa.Program, cfg *Config) (bitset, uint64) {
	if cfg.PerfectBP {
		return nil, 0
	}
	g := predGeometry(cfg)
	e.predMu.Lock()
	mp := e.preds[g]
	if mp == nil {
		if e.preds == nil {
			e.preds = make(map[predGeom]*mispredicts)
		}
		mp = &mispredicts{}
		e.preds[g] = mp
	}
	e.predMu.Unlock()
	mp.once.Do(func() { mp.bits, mp.count = buildMispredicts(e.traceOf(p), e.metaOf(p), g) })
	return mp.bits, mp.count
}

func buildTrace(p *isa.Program, meta []staticMeta) *trace {
	im := interp.New(p)
	tr := &trace{}
	var info interp.StepInfo
	for ; ; tr.n++ {
		if tr.n >= traceCap {
			return nil // non-halting: poison the cache entry
		}
		if err := im.Step(&info); err != nil {
			break // end of stream, exactly where live fetch stops
		}
		switch sm := &meta[info.Index]; {
		case sm.isCondBranch:
			if tr.condBranches%64 == 0 {
				tr.taken = append(tr.taken, 0)
			}
			if info.Taken {
				tr.taken.set(int(tr.condBranches))
			}
			tr.condBranches++
		case sm.isLoad:
			tr.loads++
			tr.addrs = append(tr.addrs, info.Addr)
		case sm.isStore:
			tr.stores++
			tr.addrs = append(tr.addrs, info.Addr)
		}
	}
	// Trim append's spare capacity: the trace lives as long as the program.
	tr.taken = slices.Clone(tr.taken)
	tr.addrs = slices.Clone(tr.addrs)
	return tr
}

// buildMispredicts runs a fresh predictor of geometry g over the trace's
// conditional branches in trace order, exactly as fetch would.
func buildMispredicts(tr *trace, meta []staticMeta, g predGeom) (bitset, uint64) {
	pred := bpred.NewPerceptron(g.entries, g.hist)
	bits := make(bitset, len(tr.taken))
	var count uint64
	var c cursor
	for c.pos < tr.n {
		br := c.br
		pc, taken, _ := c.next(tr, meta)
		if !meta[pc].isCondBranch {
			continue
		}
		addr := instrAddr(pc)
		if pred.Predict(addr, taken) != taken {
			bits.set(br)
			count++
		}
		pred.Train(addr, taken)
	}
	return bits, count
}

func buildMeta(p *isa.Program) []staticMeta {
	meta := make([]staticMeta, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		info := in.Info()
		sm := &meta[i]
		sm.isLoad = info.Class == isa.ClassLoad
		sm.isStore = info.Class == isa.ClassStore
		sm.isBranch = in.IsBranch()
		sm.isCondBranch = in.IsCondBranch()
		sm.isHalt = in.IsHalt()
		sm.braidStart = in.Start
		sm.class = uint8(info.Class)
		sm.memBytes = uint8(info.MemBytes)
		sm.aliasClass = in.AliasClass
		if info.NumSrcs >= 1 {
			if in.T1 {
				sm.s1Kind, sm.s1Idx = srcInt, in.I1
			} else if in.Src1 != isa.RegNone && in.Src1 != isa.RegZero {
				sm.s1Kind, sm.s1Idx = srcExt, uint8(in.Src1)
			}
		}
		if info.NumSrcs >= 2 && !in.HasImm {
			if in.T2 {
				sm.s2Kind, sm.s2Idx = srcInt, in.I2
			} else if in.Src2 != isa.RegNone && in.Src2 != isa.RegZero {
				sm.s2Kind, sm.s2Idx = srcExt, uint8(in.Src2)
			}
		}
		if info.ReadsDest && in.Dest != isa.RegNone && in.Dest != isa.RegZero {
			// Conditional moves read their old destination from the
			// external file (the braid ISA has no T bit for it).
			sm.s3Kind, sm.s3Idx = srcExt, uint8(in.Dest)
		}
		if in.WritesReg() && in.Dest != isa.RegZero && (in.EDest || !in.IDest) {
			sm.hasExtDest = true
			sm.extDest = uint8(in.Dest)
		}
		if in.IDest {
			sm.hasIntDest = true
			sm.intDest = in.IDestIdx
		}
		if sm.isBranch {
			sm.target = int32(in.BranchTarget(i))
		}
	}
	return meta
}
