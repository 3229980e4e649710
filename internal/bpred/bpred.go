// Package bpred implements the perceptron branch direction predictor of
// Table 4 (512-entry weight table, 64-bit global history). The timing
// simulator runs it over each program's dynamic branch stream to find the
// branches it mispredicts; the perfect predictor of the Figure 1
// potential-performance study needs no code, since it mispredicts none.
package bpred

// Perceptron is the perceptron predictor of Jiménez and Lin, configured per
// the paper's Table 4: a 512-entry weight table indexed by PC, with 64 bits
// of global history.
type Perceptron struct {
	histBits int
	entries  int
	weights  []int16 // entries × (histBits+1), flat; slot 0 of each row is the bias
	history  uint64
	theta    int32

	// One-entry output cache: the simulator calls Predict then Train on the
	// same branch with unchanged history, so the second dot product is free.
	lastPC    uint64
	lastHist  uint64
	lastY     int32
	lastValid bool
}

// NewPerceptron builds a predictor with the given table size and history
// length. Table 4's configuration is NewPerceptron(512, 64).
func NewPerceptron(entries, histBits int) *Perceptron {
	if entries <= 0 || histBits <= 0 || histBits > 64 {
		panic("bpred: bad perceptron configuration")
	}
	return &Perceptron{
		histBits: histBits,
		entries:  entries,
		weights:  make([]int16, entries*(histBits+1)),
		// Jiménez & Lin's threshold: 1.93*h + 14.
		theta: int32(1.93*float64(histBits) + 14),
	}
}

// row returns the weight vector selected by pc (bias first).
func (p *Perceptron) row(pc uint64) []int16 {
	h := pc ^ pc>>9 ^ pc>>17
	i := int(h % uint64(p.entries))
	return p.weights[i*(p.histBits+1) : (i+1)*(p.histBits+1)]
}

func (p *Perceptron) output(pc uint64) int32 {
	if p.lastValid && p.lastPC == pc && p.lastHist == p.history {
		return p.lastY
	}
	w := p.row(pc)
	y := int32(w[0])
	h := p.history
	for i := 1; i <= p.histBits; i++ {
		// Branchless ±w: sign is +1 when the history bit is set, -1 when
		// clear; identical arithmetic to the obvious if/else.
		s := int32(h&1)<<1 - 1
		y += s * int32(w[i])
		h >>= 1
	}
	p.lastPC, p.lastHist, p.lastY, p.lastValid = pc, p.history, y, true
	return y
}

// Predict returns the perceptron's direction guess.
func (p *Perceptron) Predict(pc uint64) bool {
	return p.output(pc) >= 0
}

const weightMax = 127 // keep weights in signed-byte range, as hardware would

// Train updates the indexed perceptron with the resolved outcome and shifts
// the global history. The simulator calls it once per dynamic conditional
// branch, in fetch order.
func (p *Perceptron) Train(pc uint64, taken bool) {
	y := p.output(pc)
	if (y >= 0) != taken || abs32(y) <= p.theta {
		w := p.row(pc)
		adj := func(i int, agree bool) {
			if agree {
				if w[i] < weightMax {
					w[i]++
				}
			} else if w[i] > -weightMax {
				w[i]--
			}
		}
		adj(0, taken)
		for i := 0; i < p.histBits; i++ {
			h := p.history>>uint(i)&1 != 0
			adj(i+1, h == taken)
		}
	}
	p.history = p.history<<1 | b2u(taken)
	p.lastValid = false
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
