package uarch

import (
	"slices"
	"sync"
	"sync/atomic"

	"braid/internal/bpred"
	"braid/internal/interp"
	"braid/internal/isa"
)

// trace is a prefix of one program's dynamic instruction stream in compact
// form. BRD64 has only direct branches and the simulator is functionally
// directed, so the stream is fixed by the static program plus each dynamic
// conditional branch's outcome and each dynamic load or store's address; a
// cursor rebuilds the PC sequence from those. Its arrays hold no pointers, so
// cached traces cost the garbage collector nothing to scan. Growth publishes a
// longer trace that shares the arrays of the one before and never rewrites
// them below its length.
type trace struct {
	n     int      // dynamic instructions
	taken bitset   // bit i: the i-th dynamic conditional branch was taken
	addrs []uint64 // effective address of each dynamic load and store, in order
	ended bool     // the program stops after these n instructions

	condBranches, loads, stores uint64
}

// bitset is a packed bit vector indexed from zero. Growth sets bits in the
// last word of a set that runs are reading, so words are read and written
// atomically. Each bit is set once, so adding its value sets it.
type bitset []uint64

func (b bitset) has(i int) bool { return atomic.LoadUint64(&b[i>>6])>>(i&63)&1 != 0 }

// add appends bit i, the set's next, with value v.
func (b bitset) add(i int, v bool) bitset {
	if i%64 == 0 {
		b = append(b, 0)
	}
	if v {
		atomic.AddUint64(&b[i>>6], 1<<(i&63))
	}
	return b
}

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

// traceStep is how many instructions a replay entry pre-executes each time a
// run reaches the end of its trace. It is a variable only so tests can grow
// traces in small steps.
var traceStep = 1 << 16

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

// replayEntry is one program's cached replay state: its static metadata, its
// trace as far as it has been pre-executed, and one mispredict set per
// predictor geometry over that trace. The trace grows on demand, a step at a
// time, when a run reaches the end of the prefix it holds, so a run
// pre-executes at most one step past the instructions it fetches. mu
// serializes the entry's set-up and growth. A published trace or set is never
// rewritten below its length, so runs read the prefix they hold without it.
type replayEntry struct {
	mu    sync.Mutex
	meta  []staticMeta
	tr    *trace          // nil until first use
	im    *interp.Machine // the pre-executor; nil once the program has ended
	preds map[predGeom]*mispredicts
}

// mispredicts records which of a trace's dynamic conditional branches one
// perceptron geometry mispredicts: bit i for the i-th. It always covers its
// entry's whole trace.
type mispredicts struct {
	pred  *bpred.Perceptron // trained through cur; nil once the program has ended
	cur   cursor
	bits  bitset
	count uint64
}

// replayCache maps each simulated program to its entry. The mutex guards
// only the map; building an entry's parts happens under the entry's own lock.
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
// simulation already running keeps the entry it holds.
func ReleaseProgram(p *isa.Program) {
	replayCache.Lock()
	delete(replayCache.m, p)
	replayCache.Unlock()
}

// programMeta returns the program's precomputed static metadata, computing
// and caching it on first use (shared by every Machine simulating p).
func programMeta(p *isa.Program) []staticMeta { return replayFor(p).metaOf(p) }

func (e *replayEntry) metaOf(p *isa.Program) []staticMeta {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.start(p)
	return e.meta
}

// start readies the entry on first use. Called with e.mu held.
func (e *replayEntry) start(p *isa.Program) {
	if e.tr == nil {
		e.meta = buildMeta(p)
		e.tr = &trace{}
		e.im = interp.New(p)
		e.preds = make(map[predGeom]*mispredicts)
	}
}

// upTo returns p's trace, grown until it holds instruction pos or the program
// has ended, with cfg's mispredict set over it and the set's count; nil and
// zero under PerfectBP. The simulator is functionally directed, so the stream
// depends only on the program: every Machine simulating it under any
// configuration replays one shared trace instead of re-executing the
// interpreter. Fetch is the predictor's only client and it predicts, then
// trains, every conditional branch once in trace order under every core, so
// the mispredictions depend only on the program and the geometry: each
// geometry's set is computed once per program and shared too.
func (e *replayEntry) upTo(p *isa.Program, pos int, cfg *Config) (*trace, bitset, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.start(p)
	for pos >= e.tr.n && !e.tr.ended {
		e.grow()
	}
	if cfg.PerfectBP {
		return e.tr, nil, 0
	}
	g := predGeometry(cfg)
	mp := e.preds[g]
	if mp == nil {
		mp = &mispredicts{}
		mp.extend(e.tr, e.meta, g)
		e.preds[g] = mp
	}
	return e.tr, mp.bits, mp.count
}

// grow pre-executes up to traceStep more instructions, publishes the longer
// trace and extends every mispredict set over it. Once the program has ended
// it drops the pre-executor and trims the arrays' spare capacity: the trace
// lives as long as the program. Called with e.mu held.
func (e *replayEntry) grow() {
	tr := *e.tr
	var info interp.StepInfo
	for stop := tr.n + traceStep; tr.n < stop; tr.n++ {
		if err := e.im.Step(&info); err != nil {
			tr.ended = true // end of stream, exactly where the interpreter stops
			break
		}
		switch sm := &e.meta[info.Index]; {
		case sm.isCondBranch:
			tr.taken = tr.taken.add(int(tr.condBranches), info.Taken)
			tr.condBranches++
		case sm.isLoad:
			tr.loads++
			tr.addrs = append(tr.addrs, info.Addr)
		case sm.isStore:
			tr.stores++
			tr.addrs = append(tr.addrs, info.Addr)
		}
	}
	tr.ended = tr.ended || e.im.Halted // a halt can be the step's last instruction
	if tr.ended {
		e.im = nil
		tr.taken = slices.Clone(tr.taken)
		tr.addrs = slices.Clone(tr.addrs)
	}
	e.tr = &tr
	for g, mp := range e.preds {
		mp.extend(e.tr, e.meta, g)
	}
}

// extend runs the set's perceptron of geometry g over the trace's conditional
// branches past those it has seen, in trace order, exactly as fetch would.
// The perceptron carries its state from one extension to the next and is
// dropped once the program has ended. Called with the entry's lock held.
func (mp *mispredicts) extend(tr *trace, meta []staticMeta, g predGeom) {
	if mp.pred == nil && mp.cur.pos < tr.n {
		mp.pred = bpred.NewPerceptron(g.entries, g.hist)
	}
	for mp.cur.pos < tr.n {
		br := mp.cur.br
		pc, taken, _ := mp.cur.next(tr, meta)
		if !meta[pc].isCondBranch {
			continue
		}
		addr := instrAddr(pc)
		wrong := mp.pred.Predict(addr) != taken
		mp.pred.Train(addr, taken)
		mp.bits = mp.bits.add(br, wrong)
		if wrong {
			mp.count++
		}
	}
	if tr.ended {
		mp.pred = nil
		mp.bits = slices.Clone(mp.bits)
	}
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
