package uarch

import (
	"math"
	"testing"

	"braid/internal/isa"
)

// MispredictSet exposes to the external tests which of p's dynamic
// conditional branches cfg's predictor mispredicts (bit i for the i-th), and
// how many.
func MispredictSet(p *isa.Program, cfg Config) ([]uint64, uint64) {
	_, bits, count := replayFor(p).upTo(p, math.MaxInt, &cfg)
	return bits, count
}

// InstrAddr is the fetch address of static instruction idx.
var InstrAddr = instrAddr

// freshMachine builds the machine a run of p on cfg starts from, on fresh
// memory that never reaches the pool, so a test can step it, run it with
// m.run and read it afterwards.
func freshMachine(t testing.TB, p *isa.Program, cfg Config) *Machine {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	hier, err := warmHierarchy(p, cfg.Mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMachine(p, cfg, hier, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
