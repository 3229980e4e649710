package uarch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"testing"
	"time"
)

// TestCycleLimitTyped: exhausting MaxCycles must surface as a typed
// ErrCycleLimit that callers match with errors.Is, not a bare string.
func TestCycleLimitTyped(t *testing.T) {
	orig, _ := genWorkload(t, "gcc", 100)
	cfg := OutOfOrderConfig(8)
	cfg.MaxCycles = 10 // far below what the program needs
	_, err := Simulate(orig, cfg)
	if err == nil {
		t.Fatal("expected a cycle-limit error")
	}
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("error not ErrCycleLimit: %v", err)
	}
	if errors.Is(err, ErrTimeout) || errors.Is(err, ErrCanceled) {
		t.Fatalf("cycle-limit error matched an unrelated sentinel: %v", err)
	}
}

// TestRunContextCanceled: a canceled context stops the simulation with a
// typed ErrCanceled, even when cancellation precedes the first cycle.
func TestRunContextCanceled(t *testing.T) {
	orig, _ := genWorkload(t, "gcc", 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SimulateChecked(ctx, orig, OutOfOrderConfig(8))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestRunContextTimeout: an expired deadline surfaces as ErrTimeout, which is
// distinct from cancellation so the suite can retry one but not the other.
func TestRunContextTimeout(t *testing.T) {
	orig, _ := genWorkload(t, "gcc", 100)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // deadline has certainly passed
	_, err := SimulateChecked(ctx, orig, OutOfOrderConfig(8))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("timeout error must not match ErrCanceled: %v", err)
	}
}

// TestRunCheckedCompletesClean: on a healthy machine the contained, recycled
// run is indistinguishable from the bare cycle loop — same stats, no error.
func TestRunCheckedCompletesClean(t *testing.T) {
	orig, _ := genWorkload(t, "gcc", 100)
	cfg := OutOfOrderConfig(8)
	cfg.Paranoid = true
	m := freshMachine(t, orig, cfg)
	if _, err := m.run(context.Background(), math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	got, err := SimulateChecked(context.Background(), orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *got != m.stats {
		t.Fatalf("SimulateChecked diverged:\n got  %+v\n want %+v", *got, m.stats)
	}
}

// The corruptions the fault matrix arms through Config.fault. Each reports
// whether it found its target this cycle; one that did not stays armed and
// tries again next cycle.

// clearBusyBit clears a busy BEU's busy bit without releasing its braid,
// desynchronizing the braid core's freeCnt shadow counter.
func clearBusyBit(m *Machine) bool {
	bc, ok := m.cre.(*braidCore)
	if !ok {
		return false
	}
	for i := range bc.beus {
		if bc.beus[i].busy {
			bc.beus[i].busy = false
			return true
		}
	}
	return false
}

// dropCalendarEntry silently removes one pending entry from the completion
// calendar, leaving wbCount overstating the pending set.
func dropCalendarEntry(m *Machine) bool {
	if m.wbCount == 0 {
		return false
	}
	for i := range m.wbcal {
		if n := len(m.wbcal[i]); n > 0 {
			m.wbcal[i] = m.wbcal[i][:n-1]
			return true
		}
	}
	return false
}

// skewRefcount forces the ROB head's reference count negative, the
// arena-corruption signature the checker guards against.
func skewRefcount(m *Machine) bool {
	if m.rob.len() == 0 {
		return false
	}
	m.rob.front().refs = -1
	return true
}

// stickReadPort wedges the per-cycle read-port counter above the configured
// limit, as if a port arbiter failed to reset.
func stickReadPort(m *Machine) bool {
	m.readPortsUsed = m.cfg.RFReadPorts + 1
	return true
}

// TestFaultInjectionMatrix corrupts each pipeline structure in turn and
// proves two things per corruption: the paranoid checker detects it (the
// panic message names the violated invariant) and SimulateChecked contains
// it as a *SimFault instead of crashing the test process.
func TestFaultInjectionMatrix(t *testing.T) {
	orig, braided := genWorkload(t, "gcc", 100)
	cases := []struct {
		name    string
		apply   func(*Machine) bool
		braided bool
		cfg     Config
		detect  string // regexp the checker's panic must match
	}{
		{"busy-bit", clearBusyBit, true, BraidConfig(8), `freeCnt \d+ but \d+ BEUs idle|BEU \d+ open but not busy`},
		{"calendar-drop", dropCalendarEntry, false, OutOfOrderConfig(8), `calendar count \d+ != \d+`},
		{"refcount-skew", skewRefcount, false, OutOfOrderConfig(8), `negative refcount`},
		{"port-stuck", stickReadPort, false, OutOfOrderConfig(8), `port counters exceed limits`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p := orig
			if c.braided {
				p = braided
			}
			cfg := c.cfg
			cfg.Paranoid = true
			cfg.fault = &faultHook{at: 20, apply: c.apply}
			st, err := SimulateChecked(context.Background(), p, cfg)
			if err == nil {
				t.Fatalf("injected %s went undetected: clean run, %d cycles", c.name, st.Cycles)
			}
			var sf *SimFault
			if !errors.As(err, &sf) {
				t.Fatalf("injected %s surfaced as %T, want *SimFault: %v", c.name, err, err)
			}
			msg := fmt.Sprint(sf.Panic)
			if ok, _ := regexp.MatchString(c.detect, msg); !ok {
				t.Errorf("checker caught the wrong invariant for %s:\n  panic: %s\n  want match: %s",
					c.name, msg, c.detect)
			}
			if sf.Cycle < 20 {
				t.Errorf("fault armed for cycle 20 detected at cycle %d", sf.Cycle)
			}
			if sf.Core != cfg.Core || sf.Program == "" {
				t.Errorf("fault metadata incomplete: core=%v program=%q", sf.Core, sf.Program)
			}
			if len(sf.Stack) == 0 {
				t.Error("fault carries no stack trace")
			}
		})
	}
}

// TestFaultDetectionIsSameCycle: the fault hook runs immediately before the
// paranoid check inside one step, so detection must not lag the corruption —
// the artifact's cycle number is where the corruption actually is.
func TestFaultDetectionIsSameCycle(t *testing.T) {
	orig, _ := genWorkload(t, "gcc", 100)
	cfg := OutOfOrderConfig(8)
	cfg.Paranoid = true
	cfg.fault = &faultHook{at: 0, apply: stickReadPort}
	_, err := SimulateChecked(context.Background(), orig, cfg)
	var sf *SimFault
	if !errors.As(err, &sf) {
		t.Fatalf("want *SimFault, got %v", err)
	}
	if sf.Cycle != 0 {
		t.Errorf("fault armed for cycle 0 detected at cycle %d", sf.Cycle)
	}
}

// TestObserverPanicContained: SimulateObserved contains a panicking retire
// observer as a *SimFault that says where the run stopped — the cycle of the
// retirement it was observing, the instructions retired before it and the
// stack — and the next run of the same point is bit-identical to a run on
// fresh memory.
func TestObserverPanicContained(t *testing.T) {
	orig, _ := genWorkload(t, "gcc", 100)
	cfg := OutOfOrderConfig(8)
	m := freshMachine(t, orig, cfg)
	if _, err := m.run(context.Background(), math.MaxUint64); err != nil {
		t.Fatal(err)
	}

	const stopAt = 500
	var seen uint64
	var at RetireEvent
	_, err := SimulateObserved(context.Background(), orig, cfg, func(ev RetireEvent) {
		if seen++; seen == stopAt {
			at = ev
			panic("observer gave up")
		}
	})
	var sf *SimFault
	if !errors.As(err, &sf) {
		t.Fatalf("a panicking observer surfaced as %v, want a *SimFault", err)
	}
	if sf.Panic != "observer gave up" || len(sf.Stack) == 0 {
		t.Errorf("fault carries panic %v and a %d-byte stack", sf.Panic, len(sf.Stack))
	}
	if sf.Cycle != at.Cycle || sf.Retired != stopAt-1 {
		t.Errorf("fault stopped at cycle %d after %d retired; the observer stopped at cycle %d after %d",
			sf.Cycle, sf.Retired, at.Cycle, stopAt-1)
	}
	if sf.Core != cfg.Core || sf.Program != orig.Name {
		t.Errorf("fault names %v on %q, want %v on %q", sf.Core, sf.Program, cfg.Core, orig.Name)
	}

	got, err := SimulateChecked(context.Background(), orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *got != m.stats {
		t.Fatalf("the run after a contained panic diverged from a fresh one:\n got  %+v\n want %+v", *got, m.stats)
	}
}

// TestSimFaultError: the fault's message carries the replay essentials.
func TestSimFaultError(t *testing.T) {
	sf := &SimFault{Core: CoreBraid, Program: "gcc", Cycle: 1234, Fetched: 10, Retired: 7, Panic: "boom"}
	msg := sf.Error()
	for _, want := range []string{"braid", "gcc", "1234", "boom"} {
		if !regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(msg) {
			t.Errorf("fault message %q missing %q", msg, want)
		}
	}
}
