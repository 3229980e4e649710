package asm

import (
	"math"
	"strings"
	"testing"

	"braid/internal/interp"
	"braid/internal/isa"
)

const sumSrc = `
; sum the integers 1..10
.name sum10
	ldimm r1, #10     ; counter
	ldimm r2, #0      ; accumulator
loop:
	add   r2, r2, r1
	sub   r1, r1, #1
	bgt   r1, loop
	halt
`

func TestParseAndRun(t *testing.T) {
	p, err := Parse(sumSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "sum10" {
		t.Errorf("name = %q", p.Name)
	}
	if p.Labels["loop"] != 2 {
		t.Errorf("label loop = %d, want 2", p.Labels["loop"])
	}
	m := interp.New(p)
	if _, err := m.Run(1000, nil); err != nil {
		t.Fatal(err)
	}
	if m.R[2] != 55 {
		t.Errorf("sum = %d, want 55", m.R[2])
	}
}

func TestParseMemoryAndData(t *testing.T) {
	src := `
.name mem
.word 17
.word 25
	ldimm r1, #65536      ; DataBase
	ldq   r2, 0(r1)   !ac=1
	ldq   r3, 8(r1)   !ac=1
	add   r4, r2, r3
	stq   r4, 16(r1)  !ac=2
	halt
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 16 {
		t.Fatalf("data = %d bytes, want 16", len(p.Data))
	}
	if p.Instrs[1].AliasClass != 1 || p.Instrs[4].AliasClass != 2 {
		t.Errorf("alias classes = %d, %d", p.Instrs[1].AliasClass, p.Instrs[4].AliasClass)
	}
	m := interp.New(p)
	if _, err := m.Run(1000, nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Read64(isa.DataBase + 16); got != 42 {
		t.Errorf("stored sum = %d, want 42", got)
	}
}

func TestParseBraidAnnotations(t *testing.T) {
	src := `
	ldimm r1, #5
	add   i3, r1, #2    !start
	add   i2/r7, i3, r1
	stq   i2, 0(r1)
	halt
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := p.Instrs[1]
	if !in.Start || !in.IDest || in.IDestIdx != 3 || in.EDest {
		t.Errorf("braid bits wrong on %+v", in)
	}
	in = p.Instrs[2]
	if !in.IDest || !in.EDest || in.IDestIdx != 2 || in.Dest != 7 || !in.T1 || in.I1 != 3 {
		t.Errorf("dual destination wrong on %+v", in)
	}
	in = p.Instrs[3]
	if !in.T1 || in.I1 != 2 {
		t.Errorf("store internal source wrong on %+v", in)
	}
}

func TestParseLDA(t *testing.T) {
	p, err := Parse("\tlda r2, 24(r3)\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Instrs[0]
	if in.Op != isa.OpLDA || in.Dest != 2 || in.Src1 != 3 || in.Imm != 24 || !in.HasImm {
		t.Errorf("lda parsed as %+v", in)
	}
}

func TestParseFP(t *testing.T) {
	src := `
.fp
	ldimm r1, #4
	cvtif f0, r1
	fsqrt f1, f0
	fadd  f2, f0, f1
	halt
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !p.FP {
		t.Error(".fp not recorded")
	}
	m := interp.New(p)
	if _, err := m.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	if got := m.R[isa.RegF0+2]; got != f2u(6) {
		t.Errorf("4+2 = %v", got)
	}
}

func f2u(f float64) uint64 { return math.Float64bits(f) }

func TestParseErrors(t *testing.T) {
	cases := []string{
		"\tfrobnicate r1, r2\n\thalt\n", // unknown mnemonic
		"\tadd r1, r2\n\thalt\n",        // wrong operand count
		"\tadd r99, r1, r2\n\thalt\n",   // bad register
		"\tbne r1, nowhere\n\thalt\n",   // undefined label
		"x: x:\n\thalt\n",               // duplicate label
		"\tldq r1, r2\n\thalt\n",        // load without disp(base)
		"\t.bogus 3\n\thalt\n",          // unknown directive
		"\tadd r1, r2, r3 !wat\n\thalt\n",
		"\tadd i9, r1, r2\n\thalt\n", // internal index out of range
		// Data sizes are checked before they are allocated.
		".data -1\n\thalt\n",
		".data 999999999999\n\thalt\n",
		".data 8388608\n.data 1\n\thalt\n",
		".data 8388608\n.word 1\n\thalt\n",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted %q", src)
		}
	}
}

// TestDataSegmentAtLimit: a data segment may fill the image limit exactly
// (TestParseErrors has the sizes beyond it).
func TestDataSegmentAtLimit(t *testing.T) {
	p, err := Parse(".data 8388600\n.word 7\n\thalt\n")
	if err != nil {
		t.Fatalf("data segment at the limit rejected: %v", err)
	}
	if len(p.Data) != isa.ImageLimit {
		t.Errorf("data segment %d bytes, want %d", len(p.Data), isa.ImageLimit)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	srcs := []string{sumSrc, `
.name braided
	ldimm r1, #65536
	ldimm r2, #3
	add   i0, r1, r2     !start
	mul   i1, i0, i0
	add   i2/r5, i1, r2
	stq   r5, 8(r1)      !ac=3
	beq   r5, done
	sub   r6, r5, #1
done:
	halt
`}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		text := Format(p1)
		p2, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse failed: %v\n%s", err, text)
		}
		if len(p1.Instrs) != len(p2.Instrs) {
			t.Fatalf("instruction count changed: %d -> %d", len(p1.Instrs), len(p2.Instrs))
		}
		for i := range p1.Instrs {
			if p1.Instrs[i] != p2.Instrs[i] {
				t.Errorf("instr %d changed:\n was %+v\n now %+v", i, p1.Instrs[i], p2.Instrs[i])
			}
		}
	}
}

func TestFormatDataRoundTrip(t *testing.T) {
	src := ".word 300\n.word -7\n\thalt\n"
	p1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(Format(p1))
	if err != nil {
		t.Fatal(err)
	}
	if string(p1.Data) != string(p2.Data) {
		t.Errorf("data changed: %v -> %v", p1.Data, p2.Data)
	}
}

func TestSplitOperands(t *testing.T) {
	got := splitOperands("r1, 8(r2), #3")
	if len(got) != 3 || strings.TrimSpace(got[1]) != "8(r2)" {
		t.Errorf("splitOperands = %q", got)
	}
}
