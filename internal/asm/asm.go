// Package asm implements a two-pass assembler and a formatter for BRD64
// assembly. It exists so that hand-written kernels (such as the paper's
// Figure 2 example from gcc's life-analysis function) can be expressed
// readably, and so braided programs can be dumped and re-read.
//
// Syntax, one instruction or directive per line (";" starts a comment):
//
//	.name  prog          ; program name
//	.fp                  ; mark program as floating-point dominated
//	.data  1024          ; reserve zero-initialized data bytes
//	.word  42            ; append a 64-bit little-endian constant to data
//	loop:                ; label
//	  ldimm r1, #10
//	  add   r2, r1, r3
//	  lda   r4, 8(r1)
//	  ldq   r5, 16(r4)   !ac=2
//	  stq   r5, 24(r4)   !ac=2
//	  bne   r1, loop
//	  halt
//
// Braid annotations: "!start" marks a braid start (the S bit); a destination
// written "i3" goes to the internal register file only, "i3/r7" to both
// files; a source "i3" reads the internal file (the T bit).
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"braid/internal/isa"
)

// Parse assembles the source text into a program.
func Parse(src string) (*isa.Program, error) {
	p := &isa.Program{Labels: map[string]int{}}
	type fixup struct {
		instr int
		label string
		line  int
	}
	var fixups []fixup

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexAny(line, ";"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		lineNo := ln + 1

		// Labels (possibly several) before the statement.
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			name := strings.TrimSpace(line[:i])
			if !isIdent(name) {
				return nil, fmt.Errorf("asm:%d: bad label %q", lineNo, name)
			}
			if _, dup := p.Labels[name]; dup {
				return nil, fmt.Errorf("asm:%d: duplicate label %q", lineNo, name)
			}
			p.Labels[name] = len(p.Instrs)
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}

		if strings.HasPrefix(line, ".") {
			if err := directive(p, line, lineNo); err != nil {
				return nil, err
			}
			continue
		}

		in, label, err := parseInstr(line, lineNo)
		if err != nil {
			return nil, err
		}
		if label != "" {
			fixups = append(fixups, fixup{len(p.Instrs), label, lineNo})
		}
		p.Instrs = append(p.Instrs, in)
	}

	for _, f := range fixups {
		target, ok := p.Labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm:%d: undefined label %q", f.line, f.label)
		}
		p.Instrs[f.instr].SetBranchTarget(f.instr, target)
	}
	for i := range p.Instrs {
		p.Instrs[i].Canonicalize()
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return p, nil
}

func directive(p *isa.Program, line string, lineNo int) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".name":
		if len(fields) != 2 {
			return fmt.Errorf("asm:%d: .name wants one argument", lineNo)
		}
		p.Name = fields[1]
	case ".fp":
		p.FP = true
	case ".data":
		n, err := atoi(fields, lineNo)
		if err != nil {
			return err
		}
		if n < 0 || n > int64(isa.ImageLimit-len(p.Data)) {
			return fmt.Errorf("asm:%d: .data %d outside the %d bytes left of the %d-byte data limit",
				lineNo, n, isa.ImageLimit-len(p.Data), isa.ImageLimit)
		}
		p.Data = append(p.Data, make([]byte, n)...)
	case ".word":
		v, err := atoi(fields, lineNo)
		if err != nil {
			return err
		}
		if len(p.Data)+8 > isa.ImageLimit {
			return fmt.Errorf("asm:%d: .word beyond the %d-byte data limit", lineNo, isa.ImageLimit)
		}
		var b [8]byte
		u := uint64(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * uint(i)))
		}
		p.Data = append(p.Data, b[:]...)
	default:
		return fmt.Errorf("asm:%d: unknown directive %s", lineNo, fields[0])
	}
	return nil
}

func atoi(fields []string, lineNo int) (int64, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("asm:%d: %s wants one argument", lineNo, fields[0])
	}
	v, err := strconv.ParseInt(fields[1], 0, 64)
	if err != nil {
		return 0, fmt.Errorf("asm:%d: bad number %q", lineNo, fields[1])
	}
	return v, nil
}

// operand is one parsed operand.
type operand struct {
	kind  opKind
	reg   isa.Reg // kindReg / dual external part
	iidx  uint8   // kindInternal / dual internal part
	imm   int64   // kindImm, and displacement for kindMem
	base  isa.Reg // kindMem base register
	baseT bool    // kindMem base is internal
	baseI uint8
	label string // kindLabel
}

type opKind uint8

const (
	kindReg opKind = iota
	kindInternal
	kindDual // i3/r7
	kindImm
	kindMem
	kindLabel
)

func parseOperand(s string, lineNo int) (operand, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return operand{}, fmt.Errorf("asm:%d: empty operand", lineNo)
	case s[0] == '#':
		v, err := strconv.ParseInt(s[1:], 0, 64)
		if err != nil {
			return operand{}, fmt.Errorf("asm:%d: bad immediate %q", lineNo, s)
		}
		return operand{kind: kindImm, imm: v}, nil
	case strings.Contains(s, "("):
		o := strings.Index(s, "(")
		c := strings.Index(s, ")")
		if c < o {
			return operand{}, fmt.Errorf("asm:%d: bad memory operand %q", lineNo, s)
		}
		disp := int64(0)
		if d := strings.TrimSpace(s[:o]); d != "" {
			var err error
			disp, err = strconv.ParseInt(d, 0, 64)
			if err != nil {
				return operand{}, fmt.Errorf("asm:%d: bad displacement %q", lineNo, d)
			}
		}
		base, err := parseOperand(strings.TrimSpace(s[o+1:c]), lineNo)
		if err != nil {
			return operand{}, err
		}
		op := operand{kind: kindMem, imm: disp}
		switch base.kind {
		case kindReg:
			op.base = base.reg
		case kindInternal:
			op.baseT, op.baseI, op.base = true, base.iidx, isa.RegNone
		default:
			return operand{}, fmt.Errorf("asm:%d: bad base register in %q", lineNo, s)
		}
		return op, nil
	case strings.Contains(s, "/"):
		parts := strings.SplitN(s, "/", 2)
		a, err := parseOperand(parts[0], lineNo)
		if err != nil {
			return operand{}, err
		}
		b, err := parseOperand(parts[1], lineNo)
		if err != nil {
			return operand{}, err
		}
		if a.kind != kindInternal || b.kind != kindReg {
			return operand{}, fmt.Errorf("asm:%d: dual destination must be iN/rM, got %q", lineNo, s)
		}
		return operand{kind: kindDual, iidx: a.iidx, reg: b.reg}, nil
	}
	if n, ok := regNum(s, "r"); ok {
		if n >= isa.NumIntRegs {
			return operand{}, fmt.Errorf("asm:%d: no such register %q", lineNo, s)
		}
		return operand{kind: kindReg, reg: isa.Reg(n)}, nil
	}
	if n, ok := regNum(s, "f"); ok {
		if n >= isa.NumFPRegs {
			return operand{}, fmt.Errorf("asm:%d: no such register %q", lineNo, s)
		}
		return operand{kind: kindReg, reg: isa.RegF0 + isa.Reg(n)}, nil
	}
	if n, ok := regNum(s, "i"); ok {
		if n >= isa.NumInternalRegs {
			return operand{}, fmt.Errorf("asm:%d: no such internal register %q", lineNo, s)
		}
		return operand{kind: kindInternal, iidx: uint8(n)}, nil
	}
	if isIdent(s) {
		return operand{kind: kindLabel, label: s}, nil
	}
	return operand{}, fmt.Errorf("asm:%d: unrecognized operand %q", lineNo, s)
}

func regNum(s, prefix string) (int, bool) {
	if !strings.HasPrefix(s, prefix) || len(s) == len(prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(s[len(prefix):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}

// parseInstr assembles one statement. If the instruction references a label,
// the label name is returned for fixup.
func parseInstr(line string, lineNo int) (isa.Instruction, string, error) {
	var in isa.Instruction

	// Trailing !flags.
	for {
		i := strings.LastIndex(line, "!")
		if i < 0 {
			break
		}
		flag := strings.TrimSpace(line[i+1:])
		line = strings.TrimSpace(line[:i])
		switch {
		case flag == "start":
			in.Start = true
		case strings.HasPrefix(flag, "ac="):
			v, err := strconv.Atoi(flag[3:])
			if err != nil || v < 0 || v > isa.MaxAliasClass {
				return in, "", fmt.Errorf("asm:%d: bad alias class %q", lineNo, flag)
			}
			in.AliasClass = uint8(v)
		default:
			return in, "", fmt.Errorf("asm:%d: unknown flag %q", lineNo, flag)
		}
	}

	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	op, ok := isa.OpcodeByName(mnemonic)
	if !ok {
		return in, "", fmt.Errorf("asm:%d: unknown mnemonic %q", lineNo, mnemonic)
	}
	in.Op = op

	var ops []operand
	if rest != "" {
		for _, part := range splitOperands(rest) {
			o, err := parseOperand(part, lineNo)
			if err != nil {
				return in, "", err
			}
			ops = append(ops, o)
		}
	}

	info := in.Info()
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("asm:%d: %s wants %d operands, got %d", lineNo, mnemonic, n, len(ops))
		}
		return nil
	}
	setDest := func(o operand) error {
		switch o.kind {
		case kindReg:
			in.Dest = o.reg
		case kindInternal:
			in.Dest, in.IDest, in.IDestIdx = isa.RegNone, true, o.iidx
		case kindDual:
			in.Dest, in.IDest, in.IDestIdx, in.EDest = o.reg, true, o.iidx, true
		default:
			return fmt.Errorf("asm:%d: bad destination", lineNo)
		}
		return nil
	}
	setSrc1 := func(o operand) error {
		switch o.kind {
		case kindReg:
			in.Src1 = o.reg
		case kindInternal:
			in.Src1, in.T1, in.I1 = isa.RegNone, true, o.iidx
		default:
			return fmt.Errorf("asm:%d: bad source operand", lineNo)
		}
		return nil
	}
	setSrc2 := func(o operand) error {
		switch o.kind {
		case kindReg:
			in.Src2 = o.reg
		case kindInternal:
			in.Src2, in.T2, in.I2 = isa.RegNone, true, o.iidx
		case kindImm:
			in.HasImm = true
			in.Imm = int32(o.imm)
		default:
			return fmt.Errorf("asm:%d: bad source operand", lineNo)
		}
		return nil
	}

	var label string
	switch {
	case op == isa.OpNOP || op == isa.OpHALT:
		if err := need(0); err != nil {
			return in, "", err
		}
	case op == isa.OpLDIMM:
		if err := need(2); err != nil {
			return in, "", err
		}
		if err := setDest(ops[0]); err != nil {
			return in, "", err
		}
		if ops[1].kind != kindImm {
			return in, "", fmt.Errorf("asm:%d: ldimm wants an immediate", lineNo)
		}
		in.HasImm, in.Imm = true, int32(ops[1].imm)
	case op == isa.OpLDA:
		if err := need(2); err != nil {
			return in, "", err
		}
		if err := setDest(ops[0]); err != nil {
			return in, "", err
		}
		if ops[1].kind != kindMem {
			return in, "", fmt.Errorf("asm:%d: lda wants disp(base)", lineNo)
		}
		in.HasImm, in.Imm = true, int32(ops[1].imm)
		in.Src1, in.T1, in.I1 = ops[1].base, ops[1].baseT, ops[1].baseI
	case in.IsLoad():
		if err := need(2); err != nil {
			return in, "", err
		}
		if err := setDest(ops[0]); err != nil {
			return in, "", err
		}
		if ops[1].kind != kindMem {
			return in, "", fmt.Errorf("asm:%d: load wants disp(base)", lineNo)
		}
		in.Imm = int32(ops[1].imm)
		in.Src1, in.T1, in.I1 = ops[1].base, ops[1].baseT, ops[1].baseI
	case in.IsStore():
		if err := need(2); err != nil {
			return in, "", err
		}
		if err := setSrc1(ops[0]); err != nil {
			return in, "", err
		}
		if ops[1].kind != kindMem {
			return in, "", fmt.Errorf("asm:%d: store wants disp(base)", lineNo)
		}
		in.Imm = int32(ops[1].imm)
		in.Src2, in.T2, in.I2 = ops[1].base, ops[1].baseT, ops[1].baseI
	case in.IsUncondBranch():
		if err := need(1); err != nil {
			return in, "", err
		}
		switch ops[0].kind {
		case kindLabel:
			label = ops[0].label
		case kindImm:
			in.Imm = int32(ops[0].imm)
		default:
			return in, "", fmt.Errorf("asm:%d: branch wants a label", lineNo)
		}
	case in.IsCondBranch():
		if err := need(2); err != nil {
			return in, "", err
		}
		if err := setSrc1(ops[0]); err != nil {
			return in, "", err
		}
		switch ops[1].kind {
		case kindLabel:
			label = ops[1].label
		case kindImm:
			in.Imm = int32(ops[1].imm)
		default:
			return in, "", fmt.Errorf("asm:%d: branch wants a label", lineNo)
		}
	default:
		// Register-operand instruction.
		n := 1 + info.NumSrcs
		if err := need(n); err != nil {
			return in, "", err
		}
		if err := setDest(ops[0]); err != nil {
			return in, "", err
		}
		if info.NumSrcs >= 1 {
			if err := setSrc1(ops[1]); err != nil {
				return in, "", err
			}
		}
		if info.NumSrcs >= 2 {
			if err := setSrc2(ops[2]); err != nil {
				return in, "", err
			}
		}
	}
	return in, label, nil
}

// splitOperands splits on commas that are not inside parentheses.
func splitOperands(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i, c := range s {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}
