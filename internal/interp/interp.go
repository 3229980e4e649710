// Package interp provides the BRD64 architectural interpreter: a functional,
// in-order executor of programs. It serves three roles in the reproduction:
//
//   - Correctness reference: every cycle-level core must retire the same
//     dynamic instruction stream and produce the same final architectural
//     state that the interpreter does, for both original and braided code.
//   - Oracle: the perfect branch predictor used in Figure 1 replays the
//     interpreter's branch-outcome stream.
//   - Profiler: the paper's §1 value fanout/lifetime characterization and
//     the binary-profiling step of braid construction (§3.1) both consume
//     the interpreter's dynamic trace.
package interp

import (
	"errors"
	"fmt"
	"math"

	"braid/internal/isa"
)

// ErrMaxSteps is returned by Run when the step budget is exhausted before
// the program halts (usually an infinite loop in a generated program).
var ErrMaxSteps = errors.New("interp: maximum step count exceeded")

// Machine is the architectural state of one BRD64 program execution.
type Machine struct {
	Prog *isa.Program

	// R holds the external (architectural) registers: indices 0-31 are
	// the integer bank (r31 hardwired to zero), 32-63 the floating-point
	// bank. Floating-point values are stored as float64 bit patterns.
	R [isa.NumArchRegs]uint64

	// IR holds the internal (braid temporary) registers. A sequential
	// interpretation needs only one internal file: braids are consecutive
	// in the instruction stream and internal values never cross braid
	// boundaries, so the file behaves as scratch space. This is exactly
	// the paper's exception-mode semantics, where a single BEU processes
	// every instruction in order (§3.4).
	IR [isa.NumInternalRegs]uint64

	Mem *Memory

	PC     int
	Halted bool
	Steps  uint64
}

// New builds a machine with the program's data segment loaded.
func New(p *isa.Program) *Machine {
	m := &Machine{Prog: p, Mem: NewMemory()}
	if len(p.Data) > 0 {
		m.Mem.WriteBytes(isa.DataBase, p.Data)
	}
	return m
}

// StepInfo describes the architectural effects of one executed instruction.
type StepInfo struct {
	Index int              // static instruction index (PC before execution)
	Instr *isa.Instruction // the instruction executed

	Taken    bool // branch taken (meaningful when Instr.IsBranch())
	Target   int  // next PC after this instruction
	Addr     uint64
	MemBytes int

	WroteReg  bool
	DestReg   isa.Reg // external destination written (RegNone if none)
	WroteIR   bool
	IRIdx     uint8
	Value     uint64 // result value (register writes and store data)
	SrcCount  int
	SrcRegs   [3]isa.Reg // external sources read (RegNone-padded)
	SrcIntIdx [3]int8    // internal index if the source was internal, else -1
}

// Step executes the instruction at PC and advances. It returns an error if
// the machine is halted or PC is out of range.
func (m *Machine) Step(info *StepInfo) error {
	if m.Halted {
		return errors.New("interp: step on halted machine")
	}
	if m.PC < 0 || m.PC >= len(m.Prog.Instrs) {
		return fmt.Errorf("interp: pc %d out of range", m.PC)
	}
	in := &m.Prog.Instrs[m.PC]
	if info != nil {
		*info = StepInfo{Index: m.PC, Instr: in, DestReg: isa.RegNone}
		info.SrcIntIdx = [3]int8{-1, -1, -1}
	}

	readSrc := func(slot int, r isa.Reg, t bool, iidx uint8) uint64 {
		var v uint64
		if t {
			v = m.IR[iidx]
			if info != nil {
				info.SrcRegs[slot] = isa.RegNone
				info.SrcIntIdx[slot] = int8(iidx)
				info.SrcCount++
			}
			return v
		}
		v = m.readReg(r)
		if info != nil {
			info.SrcRegs[slot] = r
			info.SrcCount++
		}
		return v
	}

	var s1, s2 uint64
	ninfo := in.Info()
	if ninfo.NumSrcs >= 1 {
		s1 = readSrc(0, in.Src1, in.T1, in.I1)
	}
	if in.HasImm {
		s2 = uint64(int64(in.Imm))
	} else if ninfo.NumSrcs >= 2 {
		s2 = readSrc(1, in.Src2, in.T2, in.I2)
	}
	var old uint64
	if ninfo.ReadsDest {
		// The old-destination read of a conditional move always comes
		// from the external file: the braid ISA has no T bit for it,
		// and the braid compiler guarantees the external copy exists.
		old = m.readReg(in.Dest)
		if info != nil {
			info.SrcRegs[2] = in.Dest
			info.SrcCount++
		}
	}

	next := m.PC + 1
	switch {
	case in.Op == isa.OpHALT:
		m.Halted = true
	case in.IsLoad():
		addr := s1 + uint64(int64(in.Imm))
		var v uint64
		switch ninfo.MemBytes {
		case 8:
			v = m.Mem.Read64(addr)
		case 4:
			v = uint64(int64(int32(m.Mem.Read32(addr))))
		}
		m.writeDest(in, v)
		if info != nil {
			info.Addr, info.MemBytes, info.Value = addr, ninfo.MemBytes, v
		}
	case in.IsStore():
		addr := s2 + uint64(int64(in.Imm))
		switch ninfo.MemBytes {
		case 8:
			m.Mem.Write64(addr, s1)
		case 4:
			m.Mem.Write32(addr, uint32(s1))
		}
		if info != nil {
			info.Addr, info.MemBytes, info.Value = addr, ninfo.MemBytes, s1
		}
	case in.IsBranch():
		taken := false
		switch in.Op {
		case isa.OpBR:
			taken = true
		case isa.OpBEQ:
			taken = s1 == 0
		case isa.OpBNE:
			taken = s1 != 0
		case isa.OpBLT:
			taken = int64(s1) < 0
		case isa.OpBLE:
			taken = int64(s1) <= 0
		case isa.OpBGT:
			taken = int64(s1) > 0
		case isa.OpBGE:
			taken = int64(s1) >= 0
		}
		if taken {
			next = in.BranchTarget(m.PC)
		}
		if info != nil {
			info.Taken = taken
		}
	case in.Op == isa.OpNOP:
		// nothing
	default:
		v := alu(in.Op, s1, s2, old)
		m.writeDest(in, v)
		if info != nil {
			info.Value = v
		}
	}

	if info != nil {
		info.Target = next
		if in.WritesReg() || in.IDest {
			if in.IDest {
				info.WroteIR = true
				info.IRIdx = in.IDestIdx
			}
			if in.EDest || (!in.IDest && !in.EDest && in.WritesReg()) {
				info.WroteReg = true
				info.DestReg = in.Dest
			}
		}
	}
	m.PC = next
	m.Steps++
	return nil
}

func (m *Machine) readReg(r isa.Reg) uint64 {
	if r == isa.RegZero || !r.Valid() {
		return 0
	}
	return m.R[r]
}

// writeDest routes a result per the I/E destination bits; an instruction with
// neither bit set is unbraided code and writes the external register.
func (m *Machine) writeDest(in *isa.Instruction, v uint64) {
	if in.IDest {
		m.IR[in.IDestIdx] = v
	}
	if in.EDest || (!in.IDest && in.WritesReg()) {
		if in.Dest != isa.RegZero && in.Dest.Valid() {
			m.R[in.Dest] = v
		}
	}
}

// alu evaluates a non-memory, non-branch operation.
func alu(op isa.Opcode, a, b, old uint64) uint64 {
	switch op {
	case isa.OpADD, isa.OpLDA:
		return a + b
	case isa.OpLDIMM:
		return b
	case isa.OpSUB:
		return a - b
	case isa.OpMUL:
		return a * b
	case isa.OpDIV:
		if b == 0 {
			return 0
		}
		if int64(a) == math.MinInt64 && int64(b) == -1 {
			return a // overflow wraps, like Alpha hardware
		}
		return uint64(int64(a) / int64(b))
	case isa.OpAND:
		return a & b
	case isa.OpOR:
		return a | b
	case isa.OpXOR:
		return a ^ b
	case isa.OpANDNOT:
		return a &^ b
	case isa.OpSLL:
		return a << (b & 63)
	case isa.OpSRL:
		return a >> (b & 63)
	case isa.OpSRA:
		return uint64(int64(a) >> (b & 63))
	case isa.OpCMPEQ:
		return boolVal(a == b)
	case isa.OpCMPLT:
		return boolVal(int64(a) < int64(b))
	case isa.OpCMPLE:
		return boolVal(int64(a) <= int64(b))
	case isa.OpCMPULT:
		return boolVal(a < b)
	case isa.OpCMOVEQ:
		if a == 0 {
			return b
		}
		return old
	case isa.OpCMOVNE:
		if a != 0 {
			return b
		}
		return old
	case isa.OpZAPNOT:
		var v uint64
		for i := 0; i < 8; i++ {
			if b>>uint(i)&1 != 0 {
				v |= a & (0xff << (8 * uint(i)))
			}
		}
		return v
	case isa.OpSEXTL:
		return uint64(int64(int32(a)))
	case isa.OpFADD:
		return canonNaN(u2f(a) + u2f(b))
	case isa.OpFSUB:
		return canonNaN(u2f(a) - u2f(b))
	case isa.OpFMUL:
		return canonNaN(u2f(a) * u2f(b))
	case isa.OpFDIV:
		return canonNaN(u2f(a) / u2f(b))
	case isa.OpFSQRT:
		return canonNaN(math.Sqrt(u2f(a)))
	case isa.OpFNEG:
		return f2u(-u2f(a))
	case isa.OpFCMPEQ:
		return f2u(boolF(u2f(a) == u2f(b)))
	case isa.OpFCMPLT:
		return f2u(boolF(u2f(a) < u2f(b)))
	case isa.OpFCMPLE:
		return f2u(boolF(u2f(a) <= u2f(b)))
	case isa.OpCVTIF:
		return f2u(float64(int64(a)))
	case isa.OpCVTFI:
		// Out-of-range float→int conversion is implementation-defined in
		// Go (amd64 yields MinInt64 for every overflow, arm64 saturates),
		// so the architectural result must be pinned explicitly: NaN
		// converts to 0, everything else saturates. math.MaxInt64 rounds
		// up to 2^63 as a float64, so f >= math.MaxInt64 is exactly the
		// positive out-of-range set.
		f := u2f(a)
		switch {
		case math.IsNaN(f):
			return 0
		case f >= math.MaxInt64:
			return math.MaxInt64 // 0x7FFF…, saturated positive
		case f < math.MinInt64:
			return 1 << 63 // int64 MinInt64 bit pattern, saturated negative
		}
		return uint64(int64(f))
	}
	return 0
}

// canonicalNaN is the single quiet-NaN bit pattern every floating-point
// operation that produces a NaN yields. Hardware disagrees on generated
// NaNs — amd64 SSE returns the negative "indefinite" 0xFFF8… for Inf-Inf
// while arm64 returns positive 0x7FF8… — and the difference would leak
// into stored values, making final memory images host-dependent and
// breaking the cross-machine bit-identical invariant that remote execution
// (X-Braid-Body-SHA256) and internal/check rely on.
const canonicalNaN = 0x7FF8000000000000

// canonNaN pins a generated-NaN result to the canonical bit pattern;
// non-NaN values pass through untouched.
func canonNaN(f float64) uint64 {
	if math.IsNaN(f) {
		return canonicalNaN
	}
	return f2u(f)
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func u2f(u uint64) float64 { return math.Float64frombits(u) }
func f2u(f float64) uint64 { return math.Float64bits(f) }

// Run executes until HALT or maxSteps instructions, whichever comes first,
// invoking onStep (if non-nil) after every instruction. It returns the number
// of instructions executed.
func (m *Machine) Run(maxSteps uint64, onStep func(*StepInfo)) (uint64, error) {
	var info StepInfo
	start := m.Steps
	for !m.Halted {
		if m.Steps-start >= maxSteps {
			return m.Steps - start, ErrMaxSteps
		}
		var p *StepInfo
		if onStep != nil {
			p = &info
		}
		if err := m.Step(p); err != nil {
			return m.Steps - start, err
		}
		if onStep != nil {
			onStep(p)
		}
	}
	return m.Steps - start, nil
}

// FinalState captures the architectural state at halt for equivalence
// comparisons between the interpreter and the timing cores, and between
// original and braided versions of a program. Internal registers are
// excluded: they are dead at every braid boundary by construction, so two
// correct executions may legitimately differ there.
type FinalState struct {
	R       [isa.NumArchRegs]uint64
	MemHash uint64
	Steps   uint64
}

// Final summarizes the machine's architectural state.
func (m *Machine) Final() FinalState {
	fs := FinalState{R: m.R, Steps: m.Steps}
	fs.R[isa.RegZero] = 0
	fs.MemHash = m.Mem.Hash()
	return fs
}

// Equal reports whether two final states match architecturally (registers
// and memory; Steps is informational and not compared).
func (fs FinalState) Equal(o FinalState) bool {
	return fs.R == o.R && fs.MemHash == o.MemHash
}

// RunProgram is a convenience wrapper: execute p to completion and return the
// final state.
func RunProgram(p *isa.Program, maxSteps uint64) (FinalState, error) {
	m := New(p)
	if _, err := m.Run(maxSteps, nil); err != nil {
		return FinalState{}, fmt.Errorf("interp: %q: %w", p.Name, err)
	}
	return m.Final(), nil
}
