package interp

import (
	"bytes"
	"math"
	"testing"

	"braid/internal/isa"
)

// run executes instrs (HALT appended if missing) and returns the machine.
func run(t *testing.T, instrs []isa.Instruction) *Machine {
	t.Helper()
	if len(instrs) == 0 || !instrs[len(instrs)-1].IsHalt() {
		instrs = append(instrs, isa.Instruction{Op: isa.OpHALT})
	}
	p := &isa.Program{Name: "t", Instrs: instrs}
	m := New(p)
	if _, err := m.Run(100000, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func negU64(v int64) uint64 { return uint64(-v) }

func ldimm(dest isa.Reg, v int32) isa.Instruction {
	return isa.Instruction{Op: isa.OpLDIMM, Dest: dest, Imm: v, HasImm: true}
}

func TestALUOps(t *testing.T) {
	cases := []struct {
		op   isa.Opcode
		a, b int64
		want uint64
	}{
		{isa.OpADD, 3, 4, 7},
		{isa.OpSUB, 3, 4, ^uint64(0)},
		{isa.OpMUL, 5, 7, 35},
		{isa.OpDIV, 42, 6, 7},
		{isa.OpDIV, -42, 6, negU64(7)},
		{isa.OpDIV, 1, 0, 0},
		{isa.OpAND, 0b1100, 0b1010, 0b1000},
		{isa.OpOR, 0b1100, 0b1010, 0b1110},
		{isa.OpXOR, 0b1100, 0b1010, 0b0110},
		{isa.OpANDNOT, 0b1100, 0b1010, 0b0100},
		{isa.OpSLL, 1, 4, 16},
		{isa.OpSRL, 16, 2, 4},
		{isa.OpSRA, -16, 2, negU64(4)},
		{isa.OpCMPEQ, 5, 5, 1},
		{isa.OpCMPEQ, 5, 6, 0},
		{isa.OpCMPLT, -1, 0, 1},
		{isa.OpCMPLT, 1, 0, 0},
		{isa.OpCMPLE, 5, 5, 1},
		{isa.OpCMPULT, -1, 0, 0}, // unsigned: max > 0
	}
	for _, c := range cases {
		m := run(t, []isa.Instruction{
			ldimm(1, int32(c.a)),
			ldimm(2, int32(c.b)),
			{Op: c.op, Dest: 3, Src1: 1, Src2: 2},
		})
		if m.R[3] != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.a, c.b, m.R[3], c.want)
		}
	}
}

func TestZapnotSextl(t *testing.T) {
	m := run(t, []isa.Instruction{
		ldimm(1, 0x1234),
		{Op: isa.OpSLL, Dest: 1, Src1: 1, Imm: 16, HasImm: true},
		{Op: isa.OpADD, Dest: 1, Src1: 1, Imm: 0x5678, HasImm: true},
		// r1 = 0x12345678; keep low 2 bytes only.
		{Op: isa.OpZAPNOT, Dest: 2, Src1: 1, Imm: 0b0011, HasImm: true},
		{Op: isa.OpSEXTL, Dest: 3, Src1: 1},
	})
	if m.R[2] != 0x5678 {
		t.Errorf("zapnot = %#x, want 0x5678", m.R[2])
	}
	if m.R[3] != 0x12345678 {
		t.Errorf("sextl = %#x, want 0x12345678", m.R[3])
	}
	// Negative 32-bit value sign-extends.
	m = run(t, []isa.Instruction{
		ldimm(1, -1),
		{Op: isa.OpSEXTL, Dest: 2, Src1: 1},
	})
	if int64(m.R[2]) != -1 {
		t.Errorf("sextl(-1) = %d, want -1", int64(m.R[2]))
	}
}

func TestCMOV(t *testing.T) {
	m := run(t, []isa.Instruction{
		ldimm(1, 0),  // condition false for cmovne
		ldimm(2, 99), // value
		ldimm(3, 7),  // old dest
		{Op: isa.OpCMOVNE, Dest: 3, Src1: 1, Src2: 2},
		ldimm(4, 7),
		{Op: isa.OpCMOVEQ, Dest: 4, Src1: 1, Src2: 2},
	})
	if m.R[3] != 7 {
		t.Errorf("cmovne with zero cond overwrote dest: %d", m.R[3])
	}
	if m.R[4] != 99 {
		t.Errorf("cmoveq with zero cond did not move: %d", m.R[4])
	}
}

func TestZeroRegister(t *testing.T) {
	m := run(t, []isa.Instruction{
		ldimm(isa.RegZero, 42),
		{Op: isa.OpADD, Dest: 1, Src1: isa.RegZero, Imm: 5, HasImm: true},
	})
	if m.R[isa.RegZero] != 0 {
		t.Errorf("r31 = %d, want 0", m.R[isa.RegZero])
	}
	if m.R[1] != 5 {
		t.Errorf("r1 = %d, want 5", m.R[1])
	}
}

func TestMemoryOps(t *testing.T) {
	m := run(t, []isa.Instruction{
		ldimm(1, isa.DataBase),
		ldimm(2, -123456),
		{Op: isa.OpSTQ, Src1: 2, Src2: 1, Imm: 8},
		{Op: isa.OpLDQ, Dest: 3, Src1: 1, Imm: 8},
		{Op: isa.OpSTL, Src1: 2, Src2: 1, Imm: 32},
		{Op: isa.OpLDL, Dest: 4, Src1: 1, Imm: 32},
	})
	if int64(m.R[3]) != -123456 {
		t.Errorf("ldq = %d, want -123456", int64(m.R[3]))
	}
	if int64(m.R[4]) != -123456 {
		t.Errorf("ldl sign extension = %d, want -123456", int64(m.R[4]))
	}
}

func TestFloatOps(t *testing.T) {
	f := func(v float64) isa.Instruction {
		// Build an FP constant: load int, convert.
		return isa.Instruction{Op: isa.OpCVTIF, Dest: isa.RegF0, Src1: 1}
	}
	_ = f
	m := run(t, []isa.Instruction{
		ldimm(1, 9),
		{Op: isa.OpCVTIF, Dest: isa.RegF0, Src1: 1},
		{Op: isa.OpFSQRT, Dest: isa.RegF0 + 1, Src1: isa.RegF0},
		{Op: isa.OpFADD, Dest: isa.RegF0 + 2, Src1: isa.RegF0, Src2: isa.RegF0 + 1},
		{Op: isa.OpFMUL, Dest: isa.RegF0 + 3, Src1: isa.RegF0 + 2, Src2: isa.RegF0 + 2},
		{Op: isa.OpCVTFI, Dest: 2, Src1: isa.RegF0 + 3},
		{Op: isa.OpFCMPLT, Dest: isa.RegF0 + 4, Src1: isa.RegF0, Src2: isa.RegF0 + 1},
	})
	if got := math.Float64frombits(m.R[isa.RegF0+1]); got != 3 {
		t.Errorf("sqrt(9) = %v", got)
	}
	if m.R[2] != 144 {
		t.Errorf("(9+3)^2 = %d, want 144", m.R[2])
	}
	if got := math.Float64frombits(m.R[isa.RegF0+4]); got != 0 {
		t.Errorf("9 < 3 = %v, want 0", got)
	}
}

func TestBranchLoop(t *testing.T) {
	// Sum 1..10 with a countdown loop.
	instrs := []isa.Instruction{
		ldimm(1, 10), // counter
		ldimm(2, 0),  // sum
		{Op: isa.OpADD, Dest: 2, Src1: 2, Src2: 1},              // 2: sum += i
		{Op: isa.OpSUB, Dest: 1, Src1: 1, Imm: 1, HasImm: true}, // 3: i--
		{Op: isa.OpBGT, Src1: 1},                                // 4: loop while i > 0
		{Op: isa.OpHALT},
	}
	instrs[4].SetBranchTarget(4, 2)
	m := run(t, instrs)
	if m.R[2] != 55 {
		t.Errorf("sum = %d, want 55", m.R[2])
	}
}

func TestBranchVariants(t *testing.T) {
	cases := []struct {
		op    isa.Opcode
		v     int32
		taken bool
	}{
		{isa.OpBEQ, 0, true}, {isa.OpBEQ, 1, false},
		{isa.OpBNE, 0, false}, {isa.OpBNE, 1, true},
		{isa.OpBLT, -1, true}, {isa.OpBLT, 0, false},
		{isa.OpBLE, 0, true}, {isa.OpBLE, 1, false},
		{isa.OpBGT, 1, true}, {isa.OpBGT, 0, false},
		{isa.OpBGE, 0, true}, {isa.OpBGE, -1, false},
	}
	for _, c := range cases {
		// Taken path skips the ldimm that sets r2=1.
		instrs := []isa.Instruction{
			ldimm(1, c.v),
			{Op: c.op, Src1: 1},
			ldimm(2, 1),
			{Op: isa.OpHALT},
		}
		instrs[1].SetBranchTarget(1, 3)
		m := run(t, instrs)
		gotTaken := m.R[2] == 0
		if gotTaken != c.taken {
			t.Errorf("%s(%d): taken=%v, want %v", c.op, c.v, gotTaken, c.taken)
		}
	}
}

func TestInternalRegisters(t *testing.T) {
	// A braided two-instruction sequence: internal value flows i3.
	m := run(t, []isa.Instruction{
		ldimm(1, 20),
		ldimm(2, 22),
		{Op: isa.OpADD, Dest: isa.RegNone, Src1: 1, Src2: 2, IDest: true, IDestIdx: 3, Start: true},
		{Op: isa.OpADD, Dest: 4, Src1: 0, Src2: 0, T1: true, I1: 3, Imm: 1, HasImm: true, EDest: true},
	})
	if m.R[4] != 43 {
		t.Errorf("internal flow result = %d, want 43", m.R[4])
	}
}

func TestDualDestination(t *testing.T) {
	m := run(t, []isa.Instruction{
		ldimm(1, 7),
		{Op: isa.OpADD, Dest: 5, Src1: 1, Imm: 1, HasImm: true, IDest: true, IDestIdx: 2, EDest: true},
		{Op: isa.OpADD, Dest: 6, Src1: 0, T1: true, I1: 2, Imm: 0, HasImm: true, EDest: true},
	})
	if m.R[5] != 8 || m.R[6] != 8 {
		t.Errorf("dual destination: r5=%d r6=%d, want 8 8", m.R[5], m.R[6])
	}
}

func TestMaxSteps(t *testing.T) {
	instrs := []isa.Instruction{
		{Op: isa.OpBR}, // infinite loop to self
		{Op: isa.OpHALT},
	}
	instrs[0].SetBranchTarget(0, 0)
	p := &isa.Program{Name: "loop", Instrs: instrs}
	m := New(p)
	if _, err := m.Run(100, nil); err != ErrMaxSteps {
		t.Errorf("err = %v, want ErrMaxSteps", err)
	}
}

func TestStepInfoBranch(t *testing.T) {
	instrs := []isa.Instruction{
		ldimm(1, 1),
		{Op: isa.OpBNE, Src1: 1},
		{Op: isa.OpNOP},
		{Op: isa.OpHALT},
	}
	instrs[1].SetBranchTarget(1, 3)
	p := &isa.Program{Name: "b", Instrs: instrs}
	m := New(p)
	var infos []StepInfo
	if _, err := m.Run(100, func(si *StepInfo) { infos = append(infos, *si) }); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("executed %d instrs, want 3", len(infos))
	}
	if !infos[1].Taken || infos[1].Target != 3 {
		t.Errorf("branch info = taken=%v target=%d, want true 3", infos[1].Taken, infos[1].Target)
	}
}

func TestFinalStateEquality(t *testing.T) {
	mk := func(v int32) FinalState {
		p := &isa.Program{Name: "x", Instrs: []isa.Instruction{
			ldimm(1, v),
			ldimm(2, isa.DataBase),
			{Op: isa.OpSTQ, Src1: 1, Src2: 2},
			{Op: isa.OpHALT},
		}}
		fs, err := RunProgram(p, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	a, b, c := mk(5), mk(5), mk(6)
	if !a.Equal(b) {
		t.Error("identical executions compare unequal")
	}
	if a.Equal(c) {
		t.Error("different executions compare equal")
	}
}

func TestMemoryHashIgnoresZeroPages(t *testing.T) {
	m1, m2 := NewMemory(), NewMemory()
	m1.Write64(0x5000, 0) // touch a page with zeroes only
	if m1.Hash() != m2.Hash() {
		t.Error("zero-only page changed the hash")
	}
	m1.Write64(0x5000, 7)
	if m1.Hash() == m2.Hash() {
		t.Error("differing memories hash equal")
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1fff, 0xdeadbeefcafef00d) // straddles a page boundary
	if got := m.Read64(0x1fff); got != 0xdeadbeefcafef00d {
		t.Errorf("read64 = %#x", got)
	}
	m.Write32(100, 0x12345678)
	if got := m.Read32(100); got != 0x12345678 {
		t.Errorf("read32 = %#x", got)
	}
	m.WriteBytes(200, []byte{1, 2, 3})
	if got := m.ReadBytes(200, 3); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("readbytes = %v", got)
	}
}

// TestWriteBytesMatchesStore8: the page-at-a-time copy leaves memory exactly
// as storing byte by byte does, pages touched included, for spans that are
// empty, unaligned, exactly a page, cross pages or wrap past the top of the
// address space.
func TestWriteBytesMatchesStore8(t *testing.T) {
	data := make([]byte, 3*pageSize+17)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	data[pageSize] = 0 // a zero byte still touches its page
	for _, c := range []struct {
		addr uint64
		n    int
	}{
		{0x10000, 0}, {0x10001, 5}, {0x10000, pageSize}, {0x10fff, 2}, {0x10003, pageSize},
		{0x10800, 3*pageSize + 17}, {0x2000 - 1, 1}, {^uint64(0) - 100, 300},
	} {
		got, want := NewMemory(), NewMemory()
		got.WriteBytes(c.addr, data[:c.n])
		for i, b := range data[:c.n] {
			want.Store8(c.addr+uint64(i), b)
		}
		if got.Hash() != want.Hash() || len(got.pages) != len(want.pages) ||
			!bytes.Equal(got.ReadBytes(c.addr, c.n), want.ReadBytes(c.addr, c.n)) {
			t.Errorf("%d bytes at %#x: WriteBytes left %d pages hashing %#x, Store8 %d pages hashing %#x",
				c.n, c.addr, len(got.pages), got.Hash(), len(want.pages), want.Hash())
		}
	}
}

func TestValueStats(t *testing.T) {
	// r1 written once and read twice; r2 written and never read;
	// r3 written and read once.
	instrs := []isa.Instruction{
		ldimm(1, 5),
		ldimm(2, 6),
		{Op: isa.OpADD, Dest: 3, Src1: 1, Src2: 1},
		{Op: isa.OpADD, Dest: 2, Src1: 3, Imm: 0, HasImm: true},
		{Op: isa.OpHALT},
	}
	p := &isa.Program{Name: "vs", Instrs: instrs}
	vs, err := Characterize(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Values: r1 (2 reads), r2 first write (0 reads, overwritten), r3 (1
	// read), r2 second write (0 reads, retired at Finish).
	if vs.TotalValues != 4 {
		t.Fatalf("TotalValues = %d, want 4", vs.TotalValues)
	}
	if vs.Fanout[0] != 2 || vs.Fanout[1] != 1 || vs.Fanout[2] != 1 {
		t.Errorf("fanout histogram = %v", vs.Fanout[:3])
	}
	if vs.FracUnused() != 0.5 {
		t.Errorf("FracUnused = %v, want 0.5", vs.FracUnused())
	}
	if vs.FanoutCDF(2) != 1.0 {
		t.Errorf("FanoutCDF(2) = %v, want 1", vs.FanoutCDF(2))
	}
	if got := vs.LifetimeCDF(32); got != 1.0 {
		t.Errorf("LifetimeCDF(32) = %v, want 1", got)
	}
	if vs.String() == "" {
		t.Error("empty report")
	}
}

func TestDivOverflowDoesNotPanic(t *testing.T) {
	// INT64_MIN / -1 overflows; the interpreter must wrap, not panic.
	m := run(t, []isa.Instruction{
		ldimm(1, 1),
		{Op: isa.OpSLL, Dest: 1, Src1: 1, Imm: 63, HasImm: true}, // r1 = 1<<63
		ldimm(2, -1),
		{Op: isa.OpDIV, Dest: 3, Src1: 1, Src2: 2},
	})
	if m.R[3] != 1<<63 {
		t.Errorf("MinInt64 / -1 = %#x, want %#x", m.R[3], uint64(1)<<63)
	}
}
