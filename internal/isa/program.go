package isa

import "fmt"

// DataBase is the virtual address where a program's data segment begins.
// BRD64 programs address memory exclusively through their data segment; the
// workload generator and the hand-written kernels derive every pointer from
// this base.
const DataBase = 0x10000

// Program is a complete BRD64 program: a flat instruction sequence (entry at
// index 0, terminated by HALT) plus an initialized data segment.
type Program struct {
	Name   string
	Instrs []Instruction
	// Data is the initial content of the data segment, loaded at DataBase.
	Data []byte
	// Labels optionally maps symbolic names to instruction indices
	// (populated by the assembler; informational only).
	Labels map[string]int
	// FP marks the program as floating-point dominated. It only affects
	// how results are grouped in reports (the paper separates integer and
	// floating-point benchmark averages).
	FP bool
}

// Clone returns a deep copy of p.
func (p *Program) Clone() *Program {
	q := &Program{Name: p.Name, FP: p.FP}
	q.Instrs = make([]Instruction, len(p.Instrs))
	copy(q.Instrs, p.Instrs)
	q.Data = make([]byte, len(p.Data))
	copy(q.Data, p.Data)
	if p.Labels != nil {
		q.Labels = make(map[string]int, len(p.Labels))
		for k, v := range p.Labels {
			q.Labels[k] = v
		}
	}
	return q
}

// Braided reports whether p carries braid ISA bits, as the braid compiler's
// output does.
func (p *Program) Braided() bool {
	for i := range p.Instrs {
		if p.Instrs[i].Start {
			return true
		}
	}
	return false
}

// Validate checks static well-formedness: valid opcodes, registers of the
// right bank, encodable immediates, branch targets in range, and a HALT on
// every fall-through path end. It returns the first problem found.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("program %q: empty", p.Name)
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if !in.Op.Valid() {
			return fmt.Errorf("program %q instr %d: invalid opcode", p.Name, i)
		}
		if _, err := in.Encode(); err != nil {
			return fmt.Errorf("program %q instr %d: %v", p.Name, i, err)
		}
		if in.IsBranch() {
			t := in.BranchTarget(i)
			if t < 0 || t >= len(p.Instrs) {
				return fmt.Errorf("program %q instr %d (%s): branch target %d out of range", p.Name, i, in, t)
			}
		}
		if in.WritesReg() && !in.IDest && !in.Dest.Valid() {
			return fmt.Errorf("program %q instr %d (%s): missing destination", p.Name, i, in)
		}
		info := in.Info()
		// Register-bank checks: FP ops use f registers for data
		// operands; memory addressing always uses integer registers.
		// CVTFI is the one FP-class op whose result is an integer, so its
		// destination lives in the integer bank — without this carve-out
		// no assembled program could use float→int conversion at all.
		if in.Op == OpCVTFI {
			if !in.IDest && in.Dest.IsFP() {
				return fmt.Errorf("program %q instr %d (%s): cvtfi writes fp register", p.Name, i, in)
			}
		} else if info.FP && info.HasDest && !in.IDest && !in.Dest.IsFP() {
			return fmt.Errorf("program %q instr %d (%s): fp op writes integer register", p.Name, i, in)
		}
	}
	last := &p.Instrs[len(p.Instrs)-1]
	if !last.IsHalt() && !last.IsUncondBranch() {
		return fmt.Errorf("program %q: does not end in halt or branch", p.Name)
	}
	return nil
}

// EncodeAll encodes every instruction, returning the binary image of the text
// segment. It is the moral equivalent of the paper's binary translation tool
// output.
func (p *Program) EncodeAll() ([]uint64, error) {
	words := make([]uint64, len(p.Instrs))
	for i := range p.Instrs {
		w, err := p.Instrs[i].Encode()
		if err != nil {
			return nil, fmt.Errorf("instr %d: %w", i, err)
		}
		words[i] = w
	}
	return words, nil
}

// DecodeAll rebuilds a program's instructions from encoded words.
func DecodeAll(words []uint64) ([]Instruction, error) {
	instrs := make([]Instruction, len(words))
	for i, w := range words {
		in, err := Decode(w)
		if err != nil {
			return nil, fmt.Errorf("instr %d: %w", i, err)
		}
		instrs[i] = in
	}
	return instrs, nil
}

// Listing renders the program as annotated assembly, one instruction per
// line, with instruction indices.
func (p *Program) Listing() string {
	s := ""
	for i := range p.Instrs {
		s += fmt.Sprintf("%5d: %s\n", i, p.Instrs[i].String())
	}
	return s
}
