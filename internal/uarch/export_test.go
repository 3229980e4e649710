package uarch

import "braid/internal/isa"

// MispredictSet exposes to the external tests which of p's dynamic
// conditional branches cfg's predictor mispredicts (bit i for the i-th), and
// how many.
func MispredictSet(p *isa.Program, cfg Config) ([]uint64, uint64) {
	bits, count := replayFor(p).mispredictsOf(p, &cfg)
	return bits, count
}

// InstrAddr is the fetch address of static instruction idx.
var InstrAddr = instrAddr
