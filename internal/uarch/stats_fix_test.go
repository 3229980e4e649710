package uarch

import "testing"

// TestWritePortStalls pins the external register file to a single write port
// and checks the delayed writebacks show up in the WritePortStalls counter
// (Figure 7's write-port sweep needs the diagnostic).
func TestWritePortStalls(t *testing.T) {
	orig, _ := genWorkload(t, "crafty", 300)
	wide := OutOfOrderConfig(8)
	narrow := OutOfOrderConfig(8)
	narrow.RFWritePorts = 1
	sw := simulate(t, orig, wide)
	sn := simulate(t, orig, narrow)
	t.Logf("write-port stalls: 8W %d, 1W %d", sw.WritePortStalls, sn.WritePortStalls)
	if sn.WritePortStalls == 0 {
		t.Error("single write port reported no write-port stalls")
	}
	if sn.WritePortStalls <= sw.WritePortStalls {
		t.Errorf("1 write port stalled %d times, 8 ports %d", sn.WritePortStalls, sw.WritePortStalls)
	}
	if sn.IPC() > sw.IPC()*1.01 {
		t.Errorf("1 write port (%.3f IPC) outperformed 8 (%.3f)", sn.IPC(), sw.IPC())
	}
}

// TestNarrowRetireWidthBacksUpROB checks that RetireWidth is honored
// independently of IssueWidth: a single-commit machine caps IPC at 1 and
// keeps more instructions in flight.
func TestNarrowRetireWidthBacksUpROB(t *testing.T) {
	orig, _ := genWorkload(t, "crafty", 300)
	base := OutOfOrderConfig(8)
	narrow := OutOfOrderConfig(8)
	narrow.RetireWidth = 1
	sb := simulate(t, orig, base)
	sn := simulate(t, orig, narrow)
	t.Logf("retire 8: IPC %.3f, in flight %.1f; retire 1: IPC %.3f, in flight %.1f",
		sb.IPC(), sb.MeanROBOccupancy(), sn.IPC(), sn.MeanROBOccupancy())
	if sn.IPC() > 1.0 {
		t.Errorf("retire width 1 sustained %.3f IPC", sn.IPC())
	}
	if sn.Cycles <= sb.Cycles {
		t.Errorf("retire width 1 took %d cycles, width 8 took %d", sn.Cycles, sb.Cycles)
	}
	if sn.MeanROBOccupancy() <= sb.MeanROBOccupancy() {
		t.Errorf("retire width 1 kept %.1f in flight, width 8 kept %.1f",
			sn.MeanROBOccupancy(), sb.MeanROBOccupancy())
	}
}

// TestRetireWidthDefault checks the 0 ⇒ IssueWidth default in Validate.
func TestRetireWidthDefault(t *testing.T) {
	cfg := OutOfOrderConfig(8)
	if cfg.RetireWidth != 0 {
		t.Fatalf("constructor sets RetireWidth %d, want 0 (defaulted)", cfg.RetireWidth)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.RetireWidth != cfg.IssueWidth {
		t.Errorf("Validate defaulted RetireWidth to %d, want IssueWidth %d", cfg.RetireWidth, cfg.IssueWidth)
	}
	bad := OutOfOrderConfig(8)
	bad.RetireWidth = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative retire width accepted")
	}
}

// TestBraidCanAcceptPure reproduces the admission-check side effect: a
// refused braid-start must not close the BEU still receiving the current
// braid. canAccept may be called every cycle while dispatch is blocked.
func TestBraidCanAcceptPure(t *testing.T) {
	cfg := BraidConfig(8)
	cfg.BEUs = 1
	c := newBraidCore(&cfg, nil)
	c.dispatch(mkdyn(1, true)) // braid A starts on BEU 0
	c.dispatch(mkdyn(2, false))
	if !c.beus[0].open || !c.beus[0].busy {
		t.Fatal("BEU 0 should be receiving braid A")
	}

	// Braid B's first instruction is refused (BEU 0 busy, FIFO nonempty);
	// asking repeatedly must leave the core untouched.
	next := mkdyn(3, true)
	before := c.snapshot()
	for i := 0; i < 3; i++ {
		if c.canAccept(next) {
			t.Fatal("braid start accepted with the only BEU busy")
		}
	}
	if got := c.snapshot(); got != before {
		t.Errorf("canAccept mutated core state:\n before %s\n after  %s", before, got)
	}

	// Drain braid A's FIFO: the braid start is now acceptable (the BEU is
	// released when the new braid actually dispatches), still purely.
	c.beus[0].fifo = nil
	before = c.snapshot()
	if !c.canAccept(next) {
		t.Fatal("braid start refused with the current braid drained")
	}
	if got := c.snapshot(); got != before {
		t.Errorf("accepting canAccept mutated core state:\n before %s\n after  %s", before, got)
	}
	c.dispatch(next)
	if c.beus[0].fifo[0] != next {
		t.Error("braid B not dispatched to the recycled BEU")
	}
	if !c.beus[0].open || !c.beus[0].busy {
		t.Error("recycled BEU not marked receiving after dispatch")
	}
}
