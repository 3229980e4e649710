package uarch

import (
	"testing"

	"braid/internal/asm"
	"braid/internal/isa"
)

// TestMispredictPenaltyExact measures the configured minimum misprediction
// penalty to the cycle. A cold perceptron (all-zero weights) predicts taken,
// so a single never-taken branch mispredicts exactly once; comparing against
// the same program with the branch replaced by a NOP isolates the penalty.
func TestMispredictPenaltyExact(t *testing.T) {
	build := func(branch bool) *isa.Program {
		mid := "\tnop\n"
		if branch {
			mid = "\tbne r31, skip\n" // r31 is always zero: never taken
		}
		src := `
.name penalty
	ldimm r1, #1
` + mid + `skip:
	add r2, r1, #1
	add r3, r2, #1
	add r4, r3, #1
	halt
`
		p, err := asm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ooo-23", OutOfOrderConfig(8)},
		{"braid-19-frontend", func() Config {
			// Use the braid front end but a conventional core, so the
			// measurement isolates the front end (a braided program is
			// not needed).
			c := OutOfOrderConfig(8)
			c.FrontDepth = 8
			c.MispredictMin = 19
			return c
		}()},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			with, err := Simulate(build(true), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			without, err := Simulate(build(false), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			penalty := int64(with.Cycles) - int64(without.Cycles)
			if with.Mispredicts != 1 {
				t.Fatalf("expected exactly one misprediction, got %d", with.Mispredicts)
			}
			want := int64(tc.cfg.MispredictMin)
			// The dependent add chain behind the branch re-fills the
			// pipeline, so the end-to-end cost equals the configured
			// minimum penalty exactly.
			if penalty != want {
				t.Errorf("measured penalty %d cycles, configured minimum %d", penalty, want)
			}
		})
	}
}

// TestPipelineDepthDifference verifies the braid machine's four-stage-shorter
// front end end to end: same program, same penalty mechanics, four cycles
// less.
func TestPipelineDepthDifference(t *testing.T) {
	src := `
.name depth
	ldimm r1, #1
	bne r31, skip
skip:
	add r2, r1, #1
	halt
`
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	long := OutOfOrderConfig(8) // FrontDepth 12, penalty 23
	short := OutOfOrderConfig(8)
	short.FrontDepth = 8
	short.MispredictMin = 19
	sl, err := Simulate(p, long)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Simulate(p, short)
	if err != nil {
		t.Fatal(err)
	}
	if diff := int64(sl.Cycles) - int64(ss.Cycles); diff != 8 {
		// 4 cycles of front-end depth on the initial fill plus 4
		// cycles of misprediction penalty.
		t.Errorf("cycle difference %d, want 8 (4 fill + 4 penalty)", diff)
	}
}
