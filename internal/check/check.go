// Package check is the differential and metamorphic correctness harness:
// the systematic oracle the braid reproduction pins every optimization
// against. Three layers of checking, in increasing distance from a
// reference:
//
//   - Differential lockstep (this file): every cycle-level core must retire
//     exactly the dynamic instruction stream the architectural interpreter
//     produces — same order, same branch outcomes, same memory addresses
//     and widths, same final register file and memory image, same
//     architectural counts. A retire observer on uarch.SimulateObserved
//     sees the engine's stream; interp.Stream is the reference half.
//
//   - Compiler equivalence (this file): braiding a program must preserve
//     its observable behavior — final memory image, the ordered per-byte
//     store history (disjoint stores may commute, aliasing ones may not),
//     and dynamic instruction count.
//
//   - Metamorphic invariants (invariants.go): properties that hold across
//     configuration changes without any oracle at all — architectural
//     counts invariant under resource sizing, IPC monotone under resource
//     widening, sampled estimates converging to exact stats, bit-identical
//     reruns.
//
// On failure, the shrinker (shrink.go) reduces the offending program to a
// minimal reproduction and writes a crash artifact replayable with
// braidsim -config.
package check

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"braid/internal/braid"
	"braid/internal/cfg"
	"braid/internal/interp"
	"braid/internal/isa"
	"braid/internal/uarch"
)

// Finding is one correctness violation. It is self-contained: the program
// and configuration that exhibited the failure ride along so the shrinker
// and the crash-artifact writer can reproduce it without re-deriving
// context.
type Finding struct {
	Kind    string // "lockstep", "equivalence", "alias", "invariant", or "error"
	Program string // program name
	Core    string // core/config description; empty for program-level checks
	Detail  string // what diverged, with positions and both values

	Prog *isa.Program  // the program that failed (as simulated)
	Cfg  *uarch.Config // configuration that exhibited it; nil if program-level
}

func (f *Finding) String() string {
	core := f.Core
	if core == "" {
		core = "-"
	}
	return fmt.Sprintf("[%s] %s on %s: %s", f.Kind, f.Program, core, f.Detail)
}

// Options tunes a checking run.
type Options struct {
	// MaxSteps bounds every interpreter run (default 3M). Programs that
	// exceed it are reported as errors: the corpus and the random
	// generator only produce halting programs.
	MaxSteps uint64
	// Widths lists the issue widths to check each paradigm at
	// (default {4, 8}).
	Widths []int
	// IPCTol is the tolerated relative IPC regression when a single
	// resource is widened (default 0.05). Widening shifts when loads
	// and stores reach the cache, so small timing wobbles are physical,
	// not bugs. On top of the relative bound the invariant grants a
	// bounded absolute slack (a pipeline drain's worth of cycles), so
	// scheduling anomalies on very short programs are not misread as
	// regressions; see Invariants.
	IPCTol float64
	// Sampled enables the sampled-convergence invariant (slower; runs
	// the sampled simulator at several detail fractions).
	Sampled bool
}

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = 3_000_000
	}
	if len(o.Widths) == 0 {
		o.Widths = []int{4, 8}
	}
	if o.IPCTol == 0 {
		o.IPCTol = 0.05
	}
	return o
}

// coreConfigs returns every paradigm's configuration at width w, paired
// with the program variant it runs (the braid core runs braided code).
func coreConfigs(w int) []uarch.Config {
	return []uarch.Config{
		uarch.OutOfOrderConfig(w),
		uarch.InOrderConfig(w),
		uarch.DepSteerConfig(w),
		uarch.BraidConfig(w),
	}
}

// Program runs the full battery on one program: compiler equivalence,
// differential lockstep for every paradigm at every width, and the
// metamorphic invariants. It returns every violation found (empty means
// the program checks clean).
func Program(ctx context.Context, name string, p *isa.Program, opts Options) []Finding {
	opts = opts.withDefaults()
	var out []Finding

	res, err := braid.Compile(p, braid.Options{})
	if err != nil {
		return []Finding{{Kind: "error", Program: name, Detail: fmt.Sprintf("braid compile: %v", err), Prog: p}}
	}
	if err := res.VerifyInvariants(p); err != nil {
		out = append(out, Finding{Kind: "equivalence", Program: name,
			Detail: fmt.Sprintf("braid structural invariants: %v", err), Prog: p})
	}
	if f := Equivalence(name, p, res.Prog, opts.MaxSteps); f != nil {
		out = append(out, *f)
	}

	for _, w := range opts.Widths {
		for _, cfg := range coreConfigs(w) {
			prog := p
			if cfg.Core == uarch.CoreBraid {
				prog = res.Prog
			}
			if f := Lockstep(ctx, name, prog, cfg, opts.MaxSteps); f != nil {
				out = append(out, *f)
			}
			if ctx.Err() != nil {
				return out
			}
		}
	}

	out = append(out, Invariants(ctx, name, p, res.Prog, opts)...)
	return out
}

// lockstepState carries the comparison state of one lockstep run: the
// reference stream, the first divergence, and the per-event counters
// cross-checked against Stats after the run.
type lockstepState struct {
	st *interp.Stream
	f  *Finding

	retired, loads, stores, condBr uint64
}

// newLockstep returns the lockstep state and the retire observer that checks
// the engine's retire stream against a reference interpretation of refProg.
// Production callers pass the engine's own program as refProg; tests pass a
// deliberately different one to prove the oracle fires.
func newLockstep(name string, refProg *isa.Program, cfg uarch.Config, maxSteps uint64) (*lockstepState, func(uarch.RetireEvent)) {
	coreDesc := fmt.Sprintf("%s/w%d", cfg.Core, cfg.IssueWidth)
	ls := &lockstepState{st: interp.NewStream(refProg, maxSteps)}
	fail := func(ev uarch.RetireEvent, format string, args ...any) {
		if ls.f == nil {
			c := cfg
			ls.f = &Finding{Kind: "lockstep", Program: name, Core: coreDesc,
				Detail: fmt.Sprintf("retire seq %d (cycle %d): %s",
					ev.Seq, ev.Cycle, fmt.Sprintf(format, args...)),
				Prog: refProg, Cfg: &c}
		}
	}
	return ls, func(ev uarch.RetireEvent) {
		ls.retired++
		if ev.IsLoad {
			ls.loads++
		}
		if ev.IsStore {
			ls.stores++
		}
		if ls.f != nil {
			return
		}
		si, err := ls.st.Next()
		if err != nil {
			fail(ev, "reference interpreter: %v", err)
			return
		}
		if si == nil {
			fail(ev, "engine retired instruction %d past the interpreter's HALT", ev.Index)
			return
		}
		in := si.Instr
		if si.Index != ev.Index {
			fail(ev, "static index %d, interpreter executed %d (%s)", ev.Index, si.Index, in)
			return
		}
		if in.IsCondBranch() {
			ls.condBr++
		}
		if ev.IsLoad != in.IsLoad() || ev.IsStore != in.IsStore() || ev.IsBranch != in.IsBranch() {
			fail(ev, "classification load=%v store=%v branch=%v for %s",
				ev.IsLoad, ev.IsStore, ev.IsBranch, in)
			return
		}
		if ev.IsBranch && si.Taken != ev.Taken {
			fail(ev, "branch %s taken=%v, interpreter says %v", in, ev.Taken, si.Taken)
			return
		}
		if (ev.IsLoad || ev.IsStore) && si.Addr != ev.Addr {
			fail(ev, "%s address %#x, interpreter computed %#x", in, ev.Addr, si.Addr)
			return
		}
		if (ev.IsLoad || ev.IsStore) && uint64(si.MemBytes) != ev.MemBytes {
			fail(ev, "%s width %d bytes, interpreter used %d", in, ev.MemBytes, si.MemBytes)
			return
		}
	}
}

// Lockstep simulates p under cfg with a retire observer that steps a
// reference interpreter in lockstep, comparing every retired instruction:
// static index, branch outcome, memory address, access width, and
// instruction classification. After the run it checks the engine retired
// the complete stream (count and final architectural state) and that the
// architectural Stats counters agree with the reference stream. It returns
// the first divergence, or nil.
func Lockstep(ctx context.Context, name string, p *isa.Program, cfg uarch.Config, maxSteps uint64) *Finding {
	coreDesc := fmt.Sprintf("%s/w%d", cfg.Core, cfg.IssueWidth)
	mkFinding := func(kind, detail string) *Finding {
		c := cfg
		return &Finding{Kind: kind, Program: name, Core: coreDesc, Detail: detail, Prog: p, Cfg: &c}
	}

	// SimulateObserved contains engine panics as *SimFault errors:
	// shrinking hands the engine structurally valid but semantically
	// arbitrary programs, and a panicking candidate must surface as an
	// "error" finding, not kill the whole checking run.
	ls, observe := newLockstep(name, p, cfg, maxSteps)
	stats, err := uarch.SimulateObserved(ctx, p, cfg, observe)
	if err != nil {
		return mkFinding("error", fmt.Sprintf("uarch run: %v", err))
	}
	if ls.f != nil {
		return ls.f
	}

	// The stream must be exactly exhausted: the engine retires the whole
	// program, nothing more, nothing less.
	if !ls.st.Done() {
		return mkFinding("lockstep", fmt.Sprintf(
			"engine retired only %d instructions; interpreter has more (at step %d)", ls.retired, ls.st.M.Steps))
	}
	if stats.Retired != ls.retired {
		return mkFinding("lockstep", fmt.Sprintf(
			"Stats.Retired %d disagrees with retire event count %d", stats.Retired, ls.retired))
	}
	if stats.Retired != ls.st.M.Steps {
		return mkFinding("lockstep", fmt.Sprintf(
			"Stats.Retired %d != interpreter dynamic length %d", stats.Retired, ls.st.M.Steps))
	}
	if stats.Fetched != ls.st.M.Steps {
		return mkFinding("lockstep", fmt.Sprintf(
			"Stats.Fetched %d != interpreter dynamic length %d (fetch is trace-directed; they must agree)",
			stats.Fetched, ls.st.M.Steps))
	}
	if stats.Loads != ls.loads || stats.StoreCount != ls.stores {
		return mkFinding("lockstep", fmt.Sprintf(
			"Stats loads/stores %d/%d, retire stream saw %d/%d", stats.Loads, stats.StoreCount, ls.loads, ls.stores))
	}
	if stats.CondBranches != ls.condBr {
		return mkFinding("lockstep", fmt.Sprintf(
			"Stats.CondBranches %d, retire stream saw %d conditional branches", stats.CondBranches, ls.condBr))
	}

	// Final architectural state: the lockstep machine (driven one step per
	// retire event) must land exactly where an independent reference run
	// lands. Any dropped, duplicated, or reordered retirement desyncs it.
	ref, err := interp.RunProgram(p, maxSteps)
	if err != nil {
		return mkFinding("error", fmt.Sprintf("reference run: %v", err))
	}
	if fin := ls.st.M.Final(); !fin.Equal(ref) {
		return mkFinding("lockstep", fmt.Sprintf(
			"final architectural state diverged: lockstep mem %#x steps %d, reference mem %#x steps %d",
			fin.MemHash, fin.Steps, ref.MemHash, ref.Steps))
	}
	return nil
}

// execution summarizes one interpreter run for equivalence comparison:
// final state, store count, and a digest of the per-byte store history.
//
// The digest is deliberately NOT over the raw store stream: the braid
// scheduler may commute provably-disjoint stores (the first random sweep
// of this harness flushed out exactly that — two stq to 400(r16) and
// 424(r16) swapped, same final memory), which is legal scheduling freedom.
// What braiding must preserve is the ordered history of writes to each
// individual byte: aliasing stores keep their order (that is what the
// compiler's memory-order splits enforce), disjoint ones may interleave
// freely. Hashing per-byte histories is order-insensitive across bytes
// and order-sensitive within one — strictly stronger than comparing final
// memory, because an illegally swapped aliasing pair is caught even when
// a later store papers over the damage.
type execution struct {
	fin    interp.FinalState
	stores uint64
	digest [sha256.Size]byte
	// aliasConflict describes the first byte whose dynamic accesses carry
	// contradictory alias-class annotations (empty when sound). Alias
	// classes are a promise to the braid compiler — distinct nonzero
	// classes mean "provably disjoint" — so a store-involving overlap
	// between different nonzero classes makes any downstream reordering
	// the annotator's fault, not the compiler's. The promise is scoped to
	// the compiler's reordering unit, a single basic-block instance:
	// braiding never moves an access across a block boundary, so only
	// overlaps between accesses of the SAME dynamic block instance are
	// unsound (a class-2 load in iteration i and a class-3 store in
	// iteration j can never be swapped).
	aliasConflict string
}

// aliasMask tracks, per byte and per dynamic block instance, which nonzero
// alias classes stored to it and which loaded from it (classes fit in 4
// bits, so a uint16 bitmask each). The epoch stamps the block instance the
// masks belong to, so one allocation serves the whole run.
type aliasMask struct {
	store, load uint16
	epoch       uint64
}

func observe(p *isa.Program, maxSteps uint64) (execution, error) {
	var ex execution
	g, err := cfg.Build(p)
	if err != nil {
		return ex, fmt.Errorf("cfg: %w", err)
	}
	hist := make(map[uint64][]byte)
	cls := make(map[uint64]*aliasMask)
	var (
		epoch         uint64
		curBlock      = -1
		prevWasBranch bool
	)
	st := interp.NewStream(p, maxSteps)
	for {
		si, err := st.Next()
		if err != nil {
			return ex, err
		}
		if si == nil {
			break
		}
		// A new dynamic block instance starts after every branch (each
		// post-branch instruction is a leader, which also covers a loop
		// re-entering its own block) and on fallthrough into a leader.
		if b := g.BlockOf[si.Index]; prevWasBranch || b != curBlock {
			epoch++
			curBlock = b
		}
		prevWasBranch = si.Instr.IsBranch()

		isStore := si.Instr.IsStore()
		if isStore {
			ex.stores++
			for b := 0; b < si.MemBytes; b++ {
				a := si.Addr + uint64(b)
				hist[a] = append(hist[a], byte(si.Value>>(8*b)))
			}
		}
		if c := si.Instr.AliasClass; ex.aliasConflict == "" && c != 0 && (isStore || si.Instr.IsLoad()) {
			for b := 0; b < si.MemBytes; b++ {
				a := si.Addr + uint64(b)
				m := cls[a]
				if m == nil {
					m = &aliasMask{}
					cls[a] = m
				}
				if m.epoch != epoch {
					m.store, m.load, m.epoch = 0, 0, epoch
				}
				if isStore {
					m.store |= 1 << c
				} else {
					m.load |= 1 << c
				}
				// Unsound: two distinct nonzero store classes on one
				// byte, or a store class plus a different load class,
				// within one block instance.
				if popcount16(m.store) >= 2 || (m.store != 0 && m.load&^m.store != 0) {
					ex.aliasConflict = fmt.Sprintf(
						"byte %#x accessed under distinct nonzero alias classes within one block instance "+
							"(block %d at step %d: store mask %#x, load mask %#x)",
						a, curBlock, st.M.Steps, m.store, m.load)
					break
				}
			}
		}
	}
	ex.fin = st.M.Final()

	addrs := make([]uint64, 0, len(hist))
	for a := range hist {
		addrs = append(addrs, a)
	}
	sortUint64(addrs)
	h := sha256.New()
	var buf [16]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint64(buf[0:], a)
		binary.LittleEndian.PutUint64(buf[8:], uint64(len(hist[a])))
		h.Write(buf[:])
		h.Write(hist[a])
	}
	h.Sum(ex.digest[:0])
	return ex, nil
}

func sortUint64(s []uint64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func popcount16(v uint16) int { return bits.OnesCount16(v) }

// Equivalence checks that the braided program preserves the original's
// observable behavior: identical final memory image, identical dynamic
// instruction count, and an identical per-byte store history (see the
// execution type for why that, and not the raw ordered store stream, is
// the sound observation). The external register file is
// deliberately not compared: the braid compiler retires values that are
// dead at program end into internal registers (that is the point of the
// transformation), so memory and the store stream are the architectural
// observation channel — exactly what the compiler's own gauntlet pins.
// It returns the first violation, or nil.
func Equivalence(name string, orig, braided *isa.Program, maxSteps uint64) *Finding {
	mkFinding := func(detail string) *Finding {
		return &Finding{Kind: "equivalence", Program: name, Detail: detail, Prog: orig}
	}
	eo, err := observe(orig, maxSteps)
	if err != nil {
		return mkFinding(fmt.Sprintf("running original: %v", err))
	}
	if eo.aliasConflict != "" {
		// Root cause before symptom: unsound annotations license the
		// compiler to reorder aliasing accesses, so any divergence below
		// would blame the wrong component.
		return &Finding{Kind: "alias", Program: name, Detail: eo.aliasConflict, Prog: orig}
	}
	eb, err := observe(braided, maxSteps)
	if err != nil {
		return mkFinding(fmt.Sprintf("running braided: %v", err))
	}
	if eo.fin.MemHash != eb.fin.MemHash {
		return mkFinding(fmt.Sprintf(
			"memory image diverged after braiding: original mem %#x, braided mem %#x",
			eo.fin.MemHash, eb.fin.MemHash))
	}
	if eo.fin.Steps != eb.fin.Steps {
		return mkFinding(fmt.Sprintf(
			"dynamic length changed after braiding: %d -> %d", eo.fin.Steps, eb.fin.Steps))
	}
	if eo.stores != eb.stores || eo.digest != eb.digest {
		return mkFinding(fmt.Sprintf(
			"per-byte store history diverged after braiding: %d stores digest %x, braided %d stores digest %x",
			eo.stores, eo.digest[:8], eb.stores, eb.digest[:8]))
	}
	return nil
}
