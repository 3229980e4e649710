package uarch

import (
	"math"

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
