package uarch

import (
	"context"
	"errors"
	"testing"

	"braid/internal/braid"
	"braid/internal/interp"
	"braid/internal/workload"
)

// FuzzMachine drives fuzzer-chosen random programs through a fuzzer-chosen
// core and width, with the paranoid checker on and panics contained by
// SimulateChecked. Any finding is a real engine bug: a wedged machine
// (ErrCycleLimit), a checker-detected corruption (*SimFault), or a retirement
// count that diverges from the architectural interpreter.
func FuzzMachine(f *testing.F) {
	f.Add(int64(1), byte(2), byte(1))
	f.Add(int64(42), byte(3), byte(0))
	f.Add(int64(100), byte(0), byte(2))
	f.Add(int64(271828), byte(1), byte(1))
	f.Fuzz(func(t *testing.T, seed int64, coreSel, widthSel byte) {
		width := []int{4, 8, 16}[int(widthSel)%3]
		p := workload.RandomProgram(seed)
		fs, err := interp.RunProgram(p, 3_000_000)
		if err != nil {
			t.Skip("program rejected by the architectural interpreter")
		}
		var cfg Config
		switch coreSel % 4 {
		case 0:
			cfg = InOrderConfig(width)
		case 1:
			cfg = DepSteerConfig(width)
		case 2:
			cfg = OutOfOrderConfig(width)
		case 3:
			cfg = BraidConfig(width)
			res, err := braid.Compile(p, braid.Options{})
			if err != nil {
				t.Fatalf("seed %d: braiding: %v", seed, err)
			}
			p = res.Prog
		}
		cfg.Paranoid = true
		cfg.MaxCycles = 3_000_000
		st, err := SimulateChecked(context.Background(), p, cfg)
		if err != nil {
			var sf *SimFault
			if errors.As(err, &sf) {
				t.Fatalf("seed %d %s %dw: checker fault at cycle %d: %v\n%s",
					seed, cfg.Core, width, sf.Cycle, sf.Panic, sf.Stack)
			}
			t.Fatalf("seed %d %s %dw: %v", seed, cfg.Core, width, err)
		}
		if st.Retired != fs.Steps {
			t.Fatalf("seed %d %s %dw: retired %d, interpreter ran %d",
				seed, cfg.Core, width, st.Retired, fs.Steps)
		}
	})
}

// TestRandomProgramsOnAllCores drives adversarial random programs through
// every execution core. The timing model must retire exactly the dynamic
// instruction stream the architectural interpreter executes — no more, no
// fewer, and without deadlocking — for both original and braided binaries.
func TestRandomProgramsOnAllCores(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	for seed := int64(100); seed < int64(100+n); seed++ {
		p := workload.RandomProgram(seed)
		fs, err := interp.RunProgram(p, 3_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := braid.Compile(p, braid.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cases := []struct {
			name string
			prog bool // braided?
			cfg  Config
		}{
			{"inorder", false, InOrderConfig(8)},
			{"depsteer", false, DepSteerConfig(8)},
			{"ooo", false, OutOfOrderConfig(8)},
			{"ooo4", false, OutOfOrderConfig(4)},
			{"braid", true, BraidConfig(8)},
			{"braid4", true, BraidConfig(4)},
		}
		for _, c := range cases {
			prog := p
			if c.prog {
				prog = res.Prog
			}
			cfg := c.cfg
			cfg.MaxCycles = 3_000_000
			cfg.Paranoid = true
			st, err := Simulate(prog, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, err)
			}
			if st.Retired != fs.Steps {
				t.Fatalf("seed %d %s: retired %d, interpreter ran %d", seed, c.name, st.Retired, fs.Steps)
			}
		}
	}
}

// TestRandomProgramsUnderTinyResources squeezes the same corpus through
// deliberately starved machines: 4-entry register files, one write port, a
// single BEU, a one-entry window. Nothing may deadlock, and retirement must
// stay exact.
func TestRandomProgramsUnderTinyResources(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 6
	}
	for seed := int64(300); seed < int64(300+n); seed++ {
		p := workload.RandomProgram(seed)
		fs, err := interp.RunProgram(p, 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := braid.Compile(p, braid.Options{})
		if err != nil {
			t.Fatal(err)
		}

		tiny := OutOfOrderConfig(4)
		tiny.RFEntries = 4
		tiny.RFWritePorts = 1
		tiny.RFReadPorts = 2
		tiny.MaxCycles = 5_000_000
		tiny.Paranoid = true
		st, err := Simulate(p, tiny)
		if err != nil {
			t.Fatalf("seed %d starved ooo: %v", seed, err)
		}
		if st.Retired != fs.Steps {
			t.Fatalf("seed %d starved ooo: retired %d want %d", seed, st.Retired, fs.Steps)
		}

		bt := BraidConfig(4)
		bt.BEUs = 1
		bt.BEUWindow = 1
		bt.BEUFUs = 1
		bt.TotalFUs = 1
		bt.RFEntries = 4
		bt.MaxCycles = 5_000_000
		bt.Paranoid = true
		st, err = Simulate(res.Prog, bt)
		if err != nil {
			t.Fatalf("seed %d starved braid: %v", seed, err)
		}
		if st.Retired != fs.Steps {
			t.Fatalf("seed %d starved braid: retired %d want %d", seed, st.Retired, fs.Steps)
		}
	}
}
