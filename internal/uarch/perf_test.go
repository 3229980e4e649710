package uarch

import (
	"context"
	"math"
	"testing"

	"braid/internal/braid"
	"braid/internal/workload"
)

// TestFastForwardEquivalence pins the fast-forward invariant directly: for
// every golden configuration, simulating every cycle (NoFastForward) and
// skipping provably idle stretches must produce the identical complete
// observable timing state — every Stats field and every cache counter.
func TestFastForwardEquivalence(t *testing.T) {
	progs := goldenPrograms(t)
	for _, name := range []string{"mcf", "gcc"} {
		pair := progs[name]
		for _, pt := range goldenPoints() {
			p := pair[0]
			if pt.braided {
				p = pair[1]
			}
			lines := [2]string{}
			for i, noFF := range []bool{false, true} {
				cfg := pt.cfg
				cfg.NoFastForward = noFF
				m := freshMachine(t, p, cfg)
				if _, err := m.run(context.Background(), math.MaxUint64); err != nil {
					t.Fatalf("%s/%s (noFF=%v): %v", name, pt.label, noFF, err)
				}
				lines[i] = goldenLine(&m.stats, m)
			}
			if lines[0] != lines[1] {
				t.Errorf("%s/%s: fast-forward changed observable state\n fast %s\n full %s",
					name, pt.label, lines[0], lines[1])
			}
		}
	}
}

// TestSteadyStateZeroAlloc asserts the tentpole allocation contract: once the
// arena, rings, and completion calendar have warmed up, a Machine step
// allocates nothing. A regression here (a stray append, a resurrected
// per-cycle slice) shows up as a non-zero allocation rate immediately.
func TestSteadyStateZeroAlloc(t *testing.T) {
	prof, ok := workload.ProfileByName("gcc")
	if !ok {
		t.Fatal("no profile gcc")
	}
	p, err := workload.Generate(prof, 4000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := braid.Compile(p, braid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		label   string
		braided bool
		cfg     Config
	}{
		{"ooo-8", false, OutOfOrderConfig(8)},
		{"braid-8", true, BraidConfig(8)},
	}
	for _, c := range cases {
		t.Run(c.label, func(t *testing.T) {
			prog := p
			if c.braided {
				prog = res.Prog
			}
			m := freshMachine(t, prog, c.cfg)
			// Warm up: let the arena, the fetch/ROB/LSQ rings, the
			// completion calendar, and the writeback scratch lists reach
			// their steady-state capacities.
			for i := 0; i < 20000; i++ {
				if m.step() {
					t.Fatalf("program finished during warm-up at step %d", i)
				}
			}
			avg := testing.AllocsPerRun(500, func() {
				if m.step() {
					t.Fatal("program finished during measurement")
				}
			})
			if avg != 0 {
				t.Errorf("warm Machine.step allocates %.2f objects/step, want 0", avg)
			}
		})
	}
}

// sanity-check the helper used above so a silent workload change cannot turn
// the zero-alloc test into a no-op.
func TestZeroAllocWorkloadIsLongEnough(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	p, err := workload.Generate(prof, 4000)
	if err != nil {
		t.Fatal(err)
	}
	m := freshMachine(t, p, OutOfOrderConfig(8))
	steps := 0
	for !m.step() {
		steps++
		if steps > 25000 {
			return // comfortably longer than warm-up + measurement
		}
	}
	t.Fatalf("workload too short for the zero-alloc test: finished in %d steps", steps)
}
