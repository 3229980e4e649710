package uarch

import (
	"testing"

	"braid/internal/asm"
	"braid/internal/isa"
)

func mkdyn(seq uint64, braidStart bool) *dyn {
	return &dyn{seq: seq, in: &isa.Instruction{Op: isa.OpADD, Dest: 1, Src1: 2, Src2: 3},
		braidStart: braidStart, beu: -1, sched: -1}
}

func TestOOOSteeringLeastLoaded(t *testing.T) {
	cfg := OutOfOrderConfig(8)
	c := newOOOCore(&cfg, nil)
	// Fill scheduler 0 with two entries, others empty: next dispatch must
	// avoid it.
	c.scheds[0] = append(c.scheds[0], mkdyn(1, false), mkdyn(2, false))
	d := mkdyn(3, false)
	c.dispatch(d)
	if d.sched == 0 {
		t.Error("least-loaded steering picked the fullest scheduler")
	}
}

func TestOOOCanAcceptFull(t *testing.T) {
	cfg := OutOfOrderConfig(8)
	cfg.Schedulers = 2
	cfg.SchedEntries = 1
	c := newOOOCore(&cfg, nil)
	c.dispatch(mkdyn(1, false))
	c.dispatch(mkdyn(2, false))
	if c.canAccept(mkdyn(3, false)) {
		t.Error("accepted into full schedulers")
	}
}

func TestDepSteerFollowsProducer(t *testing.T) {
	cfg := DepSteerConfig(8)
	c := newDepSteerCore(&cfg, nil)
	prod := mkdyn(1, false)
	c.dispatch(prod) // lands in an empty FIFO
	cons := mkdyn(2, false)
	cons.srcs[0] = source{producer: prod}
	cons.nsrcs = 1
	c.dispatch(cons)
	if cons.sched != prod.sched {
		t.Errorf("consumer steered to FIFO %d, producer in %d", cons.sched, prod.sched)
	}
	// The producer is no longer the tail, so a second consumer needs an
	// empty FIFO instead.
	cons2 := mkdyn(3, false)
	cons2.srcs[0] = source{producer: prod}
	cons2.nsrcs = 1
	c.dispatch(cons2)
	if cons2.sched == prod.sched {
		t.Error("second consumer stacked behind a non-tail producer")
	}
}

func TestDepSteerStallsWhenNoFIFOFits(t *testing.T) {
	cfg := DepSteerConfig(8)
	cfg.SteerFIFOs = 2
	c := newDepSteerCore(&cfg, nil)
	// Occupy both FIFOs with independent instructions.
	c.dispatch(mkdyn(1, false))
	c.dispatch(mkdyn(2, false))
	// An independent third has no empty FIFO and no producer tail.
	if c.canAccept(mkdyn(3, false)) {
		t.Error("independent instruction accepted with no empty FIFO")
	}
	// But a consumer of a tail is accepted.
	cons := mkdyn(4, false)
	tail := c.fifos[0].at(c.fifos[0].len() - 1)
	cons.srcs[0] = source{producer: tail}
	cons.nsrcs = 1
	if !c.canAccept(cons) {
		t.Error("consumer of a FIFO tail rejected")
	}
}

func TestBraidCoreDistribution(t *testing.T) {
	cfg := BraidConfig(8)
	cfg.BEUs = 2
	c := newBraidCore(&cfg, nil)

	a1 := mkdyn(1, true)
	a2 := mkdyn(2, false)
	c.dispatch(a1)
	c.dispatch(a2)
	if a1.beu != a2.beu {
		t.Errorf("braid split across BEUs: %d vs %d", a1.beu, a2.beu)
	}
	if a1.braidID != a2.braidID {
		t.Error("one braid carries two braid ids")
	}
	b1 := mkdyn(3, true)
	c.dispatch(b1)
	if b1.beu == a1.beu {
		t.Error("second braid assigned to a busy BEU")
	}
	if b1.braidID == a1.braidID {
		t.Error("distinct braids share a braid id")
	}
	// Both BEUs hold unissued braids: a third braid must wait (§3.3).
	if c.canAccept(mkdyn(4, true)) {
		t.Error("third braid accepted with both BEUs busy")
	}
	// Continuations of the current braid still flow in.
	if !c.canAccept(mkdyn(5, false)) {
		t.Error("continuation of the current braid rejected")
	}
}

func TestBraidCoreFIFOCapacity(t *testing.T) {
	cfg := BraidConfig(8)
	cfg.BEUFIFO = 2
	c := newBraidCore(&cfg, nil)
	c.dispatch(mkdyn(1, true))
	c.dispatch(mkdyn(2, false))
	if c.canAccept(mkdyn(3, false)) {
		t.Error("accepted past the FIFO capacity")
	}
}

// TestLSQAliasClasses puts both a load and a slow store (a divide feeds its
// data) on the loop-carried dependence chain. With alias class 0 the load
// must wait for the store each iteration, lengthening the recurrence by the
// divide latency; with provably-disjoint classes it issues immediately.
func TestLSQAliasClasses(t *testing.T) {
	run := func(loadClass, storeClass string) uint64 {
		src := `
.name lsq
.data 128
	ldimm r1, #65536
	ldimm r6, #100
	ldimm r7, #0
loop:
	div  r3, r7, #3
	and  r9, r7, #56
	add  r9, r9, r1
	add  r9, r9, #64
	stq  r3, 0(r1)   ` + storeClass + `
	ldq  r4, 0(r9)   ` + loadClass + `
	add  r7, r7, r4
	sub  r6, r6, #1
	bgt  r6, loop
	halt
`
		p, err := asm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Simulate(p, OutOfOrderConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	mayAlias := run("", "")          // both class 0
	noAlias := run("!ac=1", "!ac=2") // provably disjoint
	t.Logf("may-alias %d cycles, no-alias %d cycles", mayAlias, noAlias)
	if mayAlias < noAlias+300 {
		t.Errorf("alias classes saved only %d cycles; expected a first-order win", int64(mayAlias)-int64(noAlias))
	}
}

// TestInOrderStrictness: an in-order core must not let a younger independent
// instruction overtake a stalled older one, so a long-latency head serializes
// everything behind it.
func TestInOrderStrictness(t *testing.T) {
	src := `
.name strict
.data 4096
	ldimm r1, #65536
	ldq   r2, 2048(r1)
	add   r3, r2, #1
	add   r4, r1, #1
	add   r5, r1, #2
	halt
`
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	io, err := Simulate(p, InOrderConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	oo, err := Simulate(p, OutOfOrderConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	// Both wait for the cold miss before the program ends (the adds after
	// it are independent but retirement is in order); the cycle counts
	// must at least retire identically.
	if io.Retired != oo.Retired || io.Retired != 6 {
		t.Errorf("retired %d / %d, want 6", io.Retired, oo.Retired)
	}
	if io.Cycles < oo.Cycles {
		t.Errorf("in-order (%d cycles) beat out-of-order (%d)", io.Cycles, oo.Cycles)
	}
}
