package uarch

import (
	"context"
	"errors"
	"math"
	"testing"

	"braid/internal/asm"
	"braid/internal/isa"
)

// idleStretchSrc is a program whose execution contains a long, provably idle
// stretch the fast-forward path will skip: a cold main-memory load miss
// (the address lies beyond the pre-warmed first megabyte of the data space)
// with every later instruction data-dependent on it.
const idleStretchSrc = `
.name idlestretch
.data 1024
	ldimm r0, #262143      ; doubled three times: ~2 MiB, cold in every cache
	add   r0, r0, r0
	add   r0, r0, r0
	add   r0, r0, r0
	ldq   r1, 0(r0)    !ac=1
	add   r2, r1, #1
	add   r3, r2, #2
	add   r4, r3, #3
	stq   r4, 8(r0)    !ac=2
	halt
`

// TestCycleLimitInsideIdleStretch is the fast-forward clamp regression test:
// a MaxCycles budget that lands inside a fast-forwardable idle stretch (and
// at every other cycle of the run) must fire ErrCycleLimit at exactly the
// configured bound, with the same observable failure state (the error string
// reports fetched/retired/in-flight) as a machine that simulates every cycle
// individually.
func TestCycleLimitInsideIdleStretch(t *testing.T) {
	p, err := asm.Parse(idleStretchSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := OutOfOrderConfig(8)
	cfg.Mem.MemLatency = 300 // one cold miss dominates the run

	full, err := Simulate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.IdleCycles < 250 {
		t.Fatalf("program has no long idle stretch to fast-forward (%d idle of %d cycles)",
			full.IdleCycles, full.Cycles)
	}

	for lim := uint64(1); lim <= full.Cycles+5; lim++ {
		ff := cfg
		ff.MaxCycles = lim
		noff := cfg
		noff.MaxCycles = lim
		noff.NoFastForward = true
		fs, ferr := Simulate(p, ff)
		ns, nerr := Simulate(p, noff)
		if (ferr == nil) != (nerr == nil) {
			t.Fatalf("limit %d: fast-forward err=%v, per-cycle err=%v", lim, ferr, nerr)
		}
		if ferr != nil {
			if !errors.Is(ferr, ErrCycleLimit) {
				t.Fatalf("limit %d: wrong error type: %v", lim, ferr)
			}
			if ferr.Error() != nerr.Error() {
				t.Fatalf("limit %d: divergent failure state:\n  fast-forward: %v\n  per-cycle:    %v", lim, ferr, nerr)
			}
			continue
		}
		if fs.Cycles != ns.Cycles || fs.Retired != ns.Retired {
			t.Fatalf("limit %d: divergent success: %d/%d cycles, %d/%d retired",
				lim, fs.Cycles, ns.Cycles, fs.Retired, ns.Retired)
		}
	}
}

// TestCanceledContextStopsInsideIdleStretch: cancellation must be noticed on
// the cycle-based poll cadence even when every step fast-forwards, i.e. a
// pre-canceled context stops a run whose first real work is a huge leap.
func TestCanceledContextStopsInsideIdleStretch(t *testing.T) {
	p, err := asm.Parse(idleStretchSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := OutOfOrderConfig(8)
	cfg.Mem.MemLatency = 100000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateChecked(ctx, p, cfg); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled context returned %v, want ErrCanceled", err)
	}
}

// spinSrc never halts: two loads and a branch back, forever.
const spinSrc = `
.name spin
.data 64
	ldimm r1, #65536
loop:
	ldq   r2, 0(r1)
	ldq   r3, 8(r1)
	br    loop
	halt
`

// traceLen is how many instructions p's shared trace holds.
func traceLen(p *isa.Program) int {
	e := replayFor(p)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tr == nil {
		return 0
	}
	return e.tr.n
}

// TestPreExecutionBoundedByBudget: a non-halting program pre-executes at most
// one growth step past what its run fetches. An exact run cut off at
// MaxCycles C at fetch width W fetches at most C·W instructions, and a
// sampled run stops with ErrCycleLimit once the trace passes C·W.
func TestPreExecutionBoundedByBudget(t *testing.T) {
	p, err := asm.Parse(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseProgram(p)
	cfg := InOrderConfig(2)
	cfg.MaxCycles = 100_000
	bound := int(cfg.MaxCycles)*cfg.FetchWidth + traceStep

	m := freshMachine(t, p, cfg)
	if _, err := m.run(context.Background(), math.MaxUint64); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("exact run of a non-halting program returned %v, want ErrCycleLimit", err)
	}
	if n, fetched := traceLen(p), int(m.stats.Fetched); n < fetched || n > fetched+traceStep || n > bound {
		t.Errorf("exact run fetched %d instructions and left %d pre-executed, want at most one step (%d) more, and at most %d",
			fetched, n, traceStep, bound)
	}

	ReleaseProgram(p)
	sp := Sampling{Period: 10_000, Detail: 1000, Warmup: 1000}
	if _, _, err := SimulateSampled(context.Background(), p, cfg, sp); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("sampled run of a non-halting program returned %v, want ErrCycleLimit", err)
	}
	if n := traceLen(p); n == 0 || n > bound {
		t.Errorf("sampled run left %d pre-executed instructions, want 1..%d", n, bound)
	}
}

// TestSampledHugeBudgetSamples: MaxCycles × FetchWidth saturates instead of
// wrapping, so a halting program under a 2^62-cycle budget at width 8 (a
// product of 2^65) still samples.
func TestSampledHugeBudgetSamples(t *testing.T) {
	p, _ := genWorkload(t, "gcc", 150)
	defer ReleaseProgram(p)
	cfg := OutOfOrderConfig(8)
	cfg.MaxCycles = 1 << 62
	_, est, err := SimulateSampled(context.Background(), p, cfg, Sampling{Period: 8000, Detail: 2000, Warmup: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if est.Exact || est.Intervals == 0 {
		t.Errorf("estimate %+v: the run did not sample", est)
	}
}
