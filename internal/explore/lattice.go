// Package explore searches the uarch.Config design space for the IPC ×
// hardware-complexity Pareto frontier the paper argues from: braid cores
// within a few percent of an aggressive out-of-order machine's performance
// at close to in-order cost. The search is an NSGA-II-lite genetic loop —
// non-dominated sort, crowding distance, seeded mutation and crossover over
// a typed parameter lattice — evaluated through experiments.Workloads, so it
// composes with memoization, interval sampling, remote fleet execution, and
// contained-fault accounting without any code of its own for those.
//
// Everything is deterministic by construction: all genetic operations run
// serially on one goroutine with a per-generation seeded RNG, evaluation
// fans out through one IPCAll call per generation (order-independent by
// keying results on Point), and the final front is sorted canonically. The
// front digest is therefore byte-identical at any -j and across
// checkpoint/interrupt/resume.
package explore

import (
	"fmt"
	"math/rand"

	"braid/internal/uarch"
)

// Genome is one point in the search lattice. Every field is an index into
// the corresponding option table below — not a raw hardware value — so
// mutation is "step to a neighboring option" and any field combination maps
// to a machine that uarch.Config.Validate accepts (Config still validates as
// a backstop). Genomes are comparable, which the archive's dedupe relies
// on.
type Genome struct {
	Core     int8 `json:"core"`     // Cores: execution paradigm
	Width    int8 `json:"width"`    // Widths: fetch/issue width
	Retire   int8 `json:"retire"`   // RetireFracs: retire width as a fraction of issue
	BEUs     int8 `json:"beus"`     // BEUCounts: braid execution units (braid core only)
	IQ       int8 `json:"iq"`       // IQSizes: scheduler entries / BEU FIFO / steer FIFO depth
	Window   int8 `json:"window"`   // Windows: in-order window at the BEU FIFO head (braid only)
	ERF      int8 `json:"erf"`      // ERFSizes: external register-file entries
	RPorts   int8 `json:"rports"`   // ReadPorts: external RF read ports
	WPorts   int8 `json:"wports"`   // WritePorts: external RF write ports
	Bypass   int8 `json:"bypass"`   // BypassLevels: bypass network depth (values scale with it)
	PredEnt  int8 `json:"predent"`  // PredEntries: perceptron table size
	PredHist int8 `json:"predhist"` // PredHistories: global history bits
}

// The option tables. Order matters twice over: mutation steps between
// neighbors, so each table is sorted by hardware aggressiveness, and the
// -front file stores indices, so reordering or removing entries changes what
// old front files mean (append new options at the end and bump
// LatticeVersion if the meaning of an index changes).
var (
	Cores         = []uarch.CoreKind{uarch.CoreInOrder, uarch.CoreDepSteer, uarch.CoreBraid, uarch.CoreOutOfOrder}
	Widths        = []int{2, 4, 8, 16}
	RetireFracs   = []int{1, 2} // divisor: retire width = issue width / frac
	BEUCounts     = []int{2, 4, 8, 16}
	IQSizes       = []int{8, 16, 32, 64}
	Windows       = []int{1, 2, 4}
	ERFSizes      = []int{4, 8, 16, 32, 64, 128, 256}
	ReadPorts     = []int{2, 4, 6, 8, 16}
	WritePorts    = []int{1, 2, 3, 4, 8}
	BypassDepths  = []int{1, 2, 3}
	PredEntries   = []int{128, 256, 512, 1024}
	PredHistories = []int{16, 32, 64}
)

// LatticeVersion identifies the option tables, for the -front JSON whose
// genomes index into them.
const LatticeVersion = 1

// gene describes one mutable field: its name (for diagnostics), its option
// count, and an accessor. The slice is the single source of truth for the
// genetic operators, so adding a field to Genome means adding a row here.
type gene struct {
	name string
	n    int
	get  func(*Genome) *int8
}

var genes = []gene{
	{"core", len(Cores), func(g *Genome) *int8 { return &g.Core }},
	{"width", len(Widths), func(g *Genome) *int8 { return &g.Width }},
	{"retire", len(RetireFracs), func(g *Genome) *int8 { return &g.Retire }},
	{"beus", len(BEUCounts), func(g *Genome) *int8 { return &g.BEUs }},
	{"iq", len(IQSizes), func(g *Genome) *int8 { return &g.IQ }},
	{"window", len(Windows), func(g *Genome) *int8 { return &g.Window }},
	{"erf", len(ERFSizes), func(g *Genome) *int8 { return &g.ERF }},
	{"rports", len(ReadPorts), func(g *Genome) *int8 { return &g.RPorts }},
	{"wports", len(WritePorts), func(g *Genome) *int8 { return &g.WPorts }},
	{"bypass", len(BypassDepths), func(g *Genome) *int8 { return &g.Bypass }},
	{"predent", len(PredEntries), func(g *Genome) *int8 { return &g.PredEnt }},
	{"predhist", len(PredHistories), func(g *Genome) *int8 { return &g.PredHist }},
}

// valid reports whether every index is inside its table (only a genome
// built outside the genetic operators can violate this).
func (g Genome) valid() bool {
	for _, ge := range genes {
		v := *ge.get(&g)
		if v < 0 || int(v) >= ge.n {
			return false
		}
	}
	return true
}

// randomGenome samples every gene uniformly.
func randomGenome(rng *rand.Rand) Genome {
	var g Genome
	for _, ge := range genes {
		*ge.get(&g) = int8(rng.Intn(ge.n))
	}
	return g
}

// mutate flips genes in place: each gene steps to a neighboring option with
// probability 1/len(genes), and at least one gene always changes (a clone
// of its parent would waste an evaluation). Steps are ±1 clamped, so
// mutation walks the lattice instead of teleporting; a small uniform-resample
// chance keeps the search from getting stuck on a table edge.
func mutate(g *Genome, rng *rand.Rand) {
	changed := false
	for _, ge := range genes {
		if rng.Intn(len(genes)) != 0 {
			continue
		}
		changed = stepGene(ge, g, rng) || changed
	}
	if !changed {
		ge := genes[rng.Intn(len(genes))]
		for !stepGene(ge, g, rng) {
			ge = genes[rng.Intn(len(genes))]
		}
	}
}

// stepGene moves one gene and reports whether its value actually changed.
func stepGene(ge gene, g *Genome, rng *rand.Rand) bool {
	p := ge.get(g)
	old := *p
	if ge.n == 1 {
		return false
	}
	if rng.Intn(8) == 0 { // occasional long-range jump
		*p = int8(rng.Intn(ge.n))
	} else {
		step := int8(1)
		if rng.Intn(2) == 0 {
			step = -1
		}
		v := *p + step
		if v < 0 {
			v = 1
		}
		if int(v) >= ge.n {
			v = int8(ge.n - 2)
		}
		*p = v
	}
	return *p != old
}

// crossover builds a child by uniform per-gene selection from two parents.
func crossover(a, b Genome, rng *rand.Rand) Genome {
	child := a
	for _, ge := range genes {
		if rng.Intn(2) == 0 {
			*ge.get(&child) = *ge.get(&b)
		}
	}
	return child
}

// Config derives the machine a genome encodes. It starts from the canonical
// constructor for the genome's paradigm — inheriting the front-end depths,
// misprediction penalties, latencies, and memory hierarchy of Table 4 — and
// overrides the swept structures. Validate runs as a backstop so no caller
// ever simulates an inconsistent machine.
func (g Genome) Config() (uarch.Config, error) {
	if !g.valid() {
		return uarch.Config{}, fmt.Errorf("explore: genome %+v outside the lattice", g)
	}
	width := Widths[g.Width]
	var c uarch.Config
	switch Cores[g.Core] {
	case uarch.CoreInOrder:
		c = uarch.InOrderConfig(width)
	case uarch.CoreDepSteer:
		c = uarch.DepSteerConfig(width)
		c.SteerFIFODeep = IQSizes[g.IQ]
	case uarch.CoreBraid:
		c = uarch.BraidConfig(width)
		c.BEUs = BEUCounts[g.BEUs]
		c.BEUFIFO = IQSizes[g.IQ]
		c.BEUWindow = Windows[g.Window]
		c.TotalFUs = c.BEUs * c.BEUFUs
	case uarch.CoreOutOfOrder:
		c = uarch.OutOfOrderConfig(width)
		c.SchedEntries = IQSizes[g.IQ]
	}
	c.RetireWidth = width / RetireFracs[g.Retire]
	if c.RetireWidth < 1 {
		c.RetireWidth = 1
	}
	c.RFEntries = ERFSizes[g.ERF]
	c.RFReadPorts = ReadPorts[g.RPorts]
	c.RFWritePorts = WritePorts[g.WPorts]
	c.BypassLevels = BypassDepths[g.Bypass]
	c.BypassValues = 2 * c.BypassLevels
	c.PredEntries = PredEntries[g.PredEnt]
	c.PredHistory = PredHistories[g.PredHist]
	if err := c.Validate(); err != nil {
		return uarch.Config{}, err
	}
	return c, nil
}

// Braided reports whether the genome's machine runs braid-compiled binaries.
func (g Genome) Braided() bool { return Cores[g.Core] == uarch.CoreBraid }

// String renders a compact human-readable summary.
func (g Genome) String() string {
	if !g.valid() {
		return fmt.Sprintf("invalid genome %v", [12]int8{g.Core, g.Width, g.Retire, g.BEUs, g.IQ, g.Window,
			g.ERF, g.RPorts, g.WPorts, g.Bypass, g.PredEnt, g.PredHist})
	}
	s := fmt.Sprintf("%s/%dw rf%d:%dr%dw iq%d byp%d pred%d/%d",
		Cores[g.Core], Widths[g.Width], ERFSizes[g.ERF], ReadPorts[g.RPorts],
		WritePorts[g.WPorts], IQSizes[g.IQ], BypassDepths[g.Bypass],
		PredEntries[g.PredEnt], PredHistories[g.PredHist])
	if g.Braided() {
		s += fmt.Sprintf(" beu%dx%d", BEUCounts[g.BEUs], Windows[g.Window])
	}
	return s
}
