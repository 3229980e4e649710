package uarch

import (
	"sync"

	"braid/internal/interp"
	"braid/internal/isa"
)

// traceEntry is one dynamic instruction of a program's execution: everything
// fetch needs that previously came from stepping the functional interpreter.
// It is deliberately pointer-free (the static instruction is named by index)
// so cached traces cost the garbage collector nothing to scan.
type traceEntry struct {
	idx   int32
	taken bool
	addr  uint64
}

// traceCap bounds pre-execution so a non-halting program cannot hang trace
// construction; such a program falls back to the live interpreter and runs
// into the engine's MaxCycles budget as before.
const traceCap = 1 << 26

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
}

// replayEntry is one program's cached replay state. Each half is built at
// most once, under its own sync.Once, so interpreting one program never
// blocks a Machine that needs another program's trace or this program's
// metadata.
type replayEntry struct {
	traceOnce sync.Once
	trace     []traceEntry
	metaOnce  sync.Once
	meta      []staticMeta
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

// ReleaseProgram drops p's cached replay trace and static metadata, so a
// long-running process can bound the memory its simulations pin. A later
// simulation of p rebuilds both, bit-identically; a simulation already
// running keeps the copies it holds.
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
func programTrace(p *isa.Program) []traceEntry {
	e := replayFor(p)
	e.traceOnce.Do(func() { e.trace = buildTrace(p) })
	return e.trace
}

func buildTrace(p *isa.Program) []traceEntry {
	im := interp.New(p)
	var tr []traceEntry
	var info interp.StepInfo
	for {
		if len(tr) >= traceCap {
			return nil // non-halting: poison the cache entry
		}
		if err := im.Step(&info); err != nil {
			return tr // end of stream, exactly where live fetch stops
		}
		tr = append(tr, traceEntry{
			idx:   int32(info.Index),
			taken: info.Taken,
			addr:  info.Addr,
		})
	}
}

// programMeta returns the program's precomputed static metadata, computing
// and caching it on first use (shared by every Machine simulating p).
func programMeta(p *isa.Program) []staticMeta {
	e := replayFor(p)
	e.metaOnce.Do(func() { e.meta = buildMeta(p) })
	return e.meta
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
	}
	return meta
}
