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

// TestFaultInjectionMatrix corrupts each pipeline structure the injector
// knows, one at a time, and proves two things per fault: the paranoid checker
// detects it (the panic message names the violated invariant) and
// SimulateChecked contains it as a *SimFault instead of crashing the test process.
func TestFaultInjectionMatrix(t *testing.T) {
	orig, braided := genWorkload(t, "gcc", 100)
	cases := []struct {
		kind    FaultKind
		braided bool
		cfg     Config
		detect  string // regexp the checker's panic must match
	}{
		{FaultBusyBit, true, BraidConfig(8), `freeCnt \d+ but \d+ BEUs idle|BEU \d+ open but not busy`},
		{FaultCalendarDrop, false, OutOfOrderConfig(8), `calendar count \d+ != \d+`},
		{FaultRefSkew, false, OutOfOrderConfig(8), `negative refcount`},
		{FaultPortStuck, false, OutOfOrderConfig(8), `port counters exceed limits`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.kind.String(), func(t *testing.T) {
			p := orig
			if c.braided {
				p = braided
			}
			cfg := c.cfg
			cfg.Paranoid = true
			cfg.Inject = &FaultPlan{Kind: c.kind, AtCycle: 20}
			st, err := SimulateChecked(context.Background(), p, cfg)
			if err == nil {
				t.Fatalf("injected %s went undetected: clean run, %d cycles", c.kind, st.Cycles)
			}
			var sf *SimFault
			if !errors.As(err, &sf) {
				t.Fatalf("injected %s surfaced as %T, want *SimFault: %v", c.kind, err, err)
			}
			msg := fmt.Sprint(sf.Panic)
			if ok, _ := regexp.MatchString(c.detect, msg); !ok {
				t.Errorf("checker caught the wrong invariant for %s:\n  panic: %s\n  want match: %s",
					c.kind, msg, c.detect)
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

// TestFaultDetectionIsSameCycle: injection runs immediately before the
// paranoid check inside one step, so detection must not lag the corruption —
// the artifact's cycle number is where the corruption actually is.
func TestFaultDetectionIsSameCycle(t *testing.T) {
	orig, _ := genWorkload(t, "gcc", 100)
	cfg := OutOfOrderConfig(8)
	cfg.Paranoid = true
	cfg.Inject = &FaultPlan{Kind: FaultPortStuck, AtCycle: 0}
	_, err := SimulateChecked(context.Background(), orig, cfg)
	var sf *SimFault
	if !errors.As(err, &sf) {
		t.Fatalf("want *SimFault, got %v", err)
	}
	if sf.Cycle != 0 {
		t.Errorf("fault armed for cycle 0 detected at cycle %d", sf.Cycle)
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
