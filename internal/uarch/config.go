// Package uarch is the cycle-level, execution-driven simulator. It models
// the two pipelines of Table 4 — an aggressive conventional out-of-order
// design and the braid microarchitecture — plus the in-order and
// dependence-based-steering baselines of Figure 13, over a shared front end
// (perceptron branch prediction, instruction cache, allocate/rename
// bandwidth), a shared memory hierarchy with a load-store queue, and shared
// external-register-file and bypass-network resource models.
//
// The simulator is functionally directed: the front end executes the program
// functionally (via internal/interp) in fetch order, which pins down every
// dependence, branch outcome, and memory address exactly; the timing model
// then decides how many cycles the machine needs. Mispredicted branches
// stall fetch until they execute and then pay the configured redirect
// penalty (DESIGN.md §2a).
package uarch

import (
	"fmt"

	"braid/internal/mem"
)

// CoreKind selects the execution-core paradigm.
type CoreKind int

// The four paradigms of Figure 13.
const (
	CoreInOrder CoreKind = iota
	CoreDepSteer
	CoreBraid
	CoreOutOfOrder
)

func (k CoreKind) String() string {
	switch k {
	case CoreInOrder:
		return "in-order"
	case CoreDepSteer:
		return "dep-steer"
	case CoreBraid:
		return "braid"
	case CoreOutOfOrder:
		return "out-of-order"
	}
	return "core?"
}

// Config is a complete machine configuration. Zero values are invalid; use
// the constructors below for Table 4's machines and mutate fields for the
// sensitivity sweeps.
type Config struct {
	Core CoreKind

	// Front end.
	FetchWidth    int // instructions fetched per cycle
	FetchBranches int // branches the front end can process per cycle (3)
	FrontDepth    int // cycles from fetch to dispatch (rename etc.)
	AllocWidth    int // external-destination allocations per cycle
	RenameSrc     int // external source operands renamed per cycle
	MispredictMin int // minimum branch misprediction penalty in cycles
	PerfectBP     bool

	// Branch-predictor geometry (Table 4: a 512-entry perceptron weight
	// table over 64 bits of global history). Zero fields take those
	// defaults, so pre-existing configurations and their golden results
	// are unchanged; the design-space explorer sweeps them explicitly.
	PredEntries int // perceptron weight-table entries (0: 512)
	PredHistory int // global history bits, at most 64 (0: 64)

	// Execution resources.
	IssueWidth  int
	RetireWidth int // instructions committed per cycle (0: IssueWidth)
	TotalFUs    int // general-purpose functional units (all cores)
	ROB         int // maximum instructions in flight

	// External register file (in-flight value storage; DESIGN.md §1).
	RFEntries    int
	RFReadPorts  int
	RFWritePorts int

	// Bypass network.
	BypassLevels int // cycles a result remains on the bypass network
	BypassValues int // results that may enter the network per cycle

	// ExtWakeupExtra adds cycles before an external-register value can
	// wake consumers. The braid machine pays one cycle to synchronize
	// the busy-bit vectors across BEUs (§5.1); a conventional scheduler
	// wakes consumers with its own tag broadcast and pays nothing.
	ExtWakeupExtra int

	// DeadValueRelease frees an external register-file entry as soon as
	// the value is dead (all consumers issued and the overwriting
	// instruction fetched), using the compiler's dead-value information;
	// checkpoints cover recovery (§3.4, §6.3). The braid machine enables
	// it — that is how an 8-entry external file suffices (Figure 6) —
	// while the conventional baseline holds entries until retirement.
	DeadValueRelease bool

	// Out-of-order core: distributed schedulers.
	Schedulers   int
	SchedEntries int

	// Dependence-steering core (Palacharla-style FIFOs).
	SteerFIFOs    int
	SteerFIFODeep int

	// Braid core.
	BEUs      int
	BEUFIFO   int // instruction queue entries per BEU
	BEUWindow int // in-order scheduling window at the FIFO head
	BEUFUs    int // functional units per BEU

	// BEUQueueBraids lets a BEU's FIFO buffer braids back to back
	// instead of owning a single braid at a time; the window still only
	// examines the braid at the head (the internal register file is
	// recycled between braids). The paper's text says one braid per BEU
	// (§3.3), but its 32-entry FIFO for ~3-instruction braids suggests
	// buffering; this flag lets both readings be evaluated.
	BEUQueueBraids bool

	// Clustering (paper §5.2, future work): BEUs are grouped into
	// Clusters equal groups; an external value produced in one cluster
	// reaches consumers in another only after InterClusterDelay extra
	// cycles. Zero or one cluster disables it.
	Clusters          int
	InterClusterDelay int

	// Memory hierarchy.
	Mem mem.Config

	// Operation latencies by functional-unit class.
	LatIntALU, LatIntMul, LatIntDiv int
	LatFPAdd, LatFPMul, LatFPDiv    int
	LatAGU                          int // address generation before the cache

	// Exception injection (§3.4): every ExceptionEvery retired
	// instructions the machine takes an exception — the pipeline drains,
	// fetch pays the misprediction penalty (checkpoint restore), and the
	// next ExceptionHandler instructions are serialized through BEU 0 on
	// the braid core (all-but-one BEUs disabled), modeling the paper's
	// simplicity-over-speed exception mode. Zero disables injection.
	ExceptionEvery   uint64
	ExceptionHandler int

	// MaxCycles aborts runaway simulations.
	MaxCycles uint64

	// Paranoid enables per-cycle internal consistency checks (resource
	// counters in range, ROB age order, writeback queue sanity). Tests
	// switch it on; it costs a few percent of simulation speed.
	Paranoid bool

	// NoFastForward disables idle-cycle skipping, simulating every cycle
	// individually. Results are identical either way (the equivalence
	// tests assert it); this exists for those tests and for debugging.
	NoFastForward bool

	// fault arms one corruption of a pipeline structure for the tests that
	// prove the paranoid checker detects it; nil outside them. A pointer
	// keeps Config comparable, and JSON skips it.
	fault *faultHook
}

// Ceilings on what one configuration may ask of the simulator, with mem's
// ceilings on the caches and on every latency. They sit far above every
// machine in the repository — Table 4, braidtune's lattice, the ablations and
// the sweeps use at most 32 per-cycle slots or units, 2,048 entries in one
// structure and a 1,024-entry perceptron — and bound what one run can
// allocate: the ROB and fetch-buffer records, the scheduler and BEU arrays,
// the perceptron, the caches and the completion calendar.
const (
	maxWidth       = 256     // per-cycle widths and ports, functional units, unit counts
	maxEntries     = 1 << 14 // entries in one structure, the fetch buffer included
	maxPredEntries = 1 << 16 // perceptron weight-table entries
)

// Validate checks internal consistency. Random search (internal/explore),
// braidd request decoding, and braidsim -config replay all call it, so a
// mutated or hand-written configuration cannot construct a nonsense machine
// that the engine would mis-simulate or hang on, nor one too large to build.
func (c *Config) Validate() error {
	if c.Core < CoreInOrder || c.Core > CoreOutOfOrder {
		return fmt.Errorf("uarch: unknown core kind %d", c.Core)
	}
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.ROB <= 0 || c.TotalFUs <= 0 {
		return fmt.Errorf("uarch: bad widths in config: %+v", c)
	}
	if c.FetchBranches <= 0 {
		return fmt.Errorf("uarch: fetch must process at least one branch per cycle, got %d", c.FetchBranches)
	}
	if c.FrontDepth < 0 {
		return fmt.Errorf("uarch: negative front-end depth %d", c.FrontDepth)
	}
	if c.AllocWidth <= 0 || c.RenameSrc <= 0 {
		return fmt.Errorf("uarch: bad rename bandwidth (alloc %d, src %d)", c.AllocWidth, c.RenameSrc)
	}
	if c.RetireWidth < 0 {
		return fmt.Errorf("uarch: negative retire width %d", c.RetireWidth)
	}
	if c.RetireWidth == 0 {
		c.RetireWidth = c.IssueWidth
	}
	if c.RFEntries <= 0 || c.RFReadPorts <= 0 || c.RFWritePorts <= 0 {
		return fmt.Errorf("uarch: bad register file config")
	}
	if c.BypassLevels <= 0 || c.BypassValues <= 0 {
		return fmt.Errorf("uarch: bad bypass network (%d levels x %d values)", c.BypassLevels, c.BypassValues)
	}
	if c.ExtWakeupExtra < 0 {
		return fmt.Errorf("uarch: negative external wakeup delay %d", c.ExtWakeupExtra)
	}
	if c.PredEntries < 0 || c.PredHistory < 0 || c.PredHistory > 64 {
		return fmt.Errorf("uarch: bad predictor geometry (%d entries, %d history bits)", c.PredEntries, c.PredHistory)
	}
	if c.MispredictMin < c.FrontDepth+2 {
		return fmt.Errorf("uarch: misprediction penalty %d below front depth %d+2", c.MispredictMin, c.FrontDepth)
	}
	for _, l := range []int{c.LatIntALU, c.LatIntMul, c.LatIntDiv, c.LatFPAdd, c.LatFPMul, c.LatFPDiv, c.LatAGU} {
		if l <= 0 {
			return fmt.Errorf("uarch: operation latencies must be at least one cycle: %+v", c)
		}
	}
	if c.Clusters < 0 || c.InterClusterDelay < 0 {
		return fmt.Errorf("uarch: bad clustering (%d clusters, %d delay)", c.Clusters, c.InterClusterDelay)
	}
	switch c.Core {
	case CoreOutOfOrder:
		if c.Schedulers <= 0 || c.SchedEntries <= 0 {
			return fmt.Errorf("uarch: out-of-order core needs schedulers")
		}
	case CoreDepSteer:
		if c.SteerFIFOs <= 0 || c.SteerFIFODeep <= 0 {
			return fmt.Errorf("uarch: dep-steer core needs FIFOs")
		}
	case CoreBraid:
		if c.BEUs <= 0 || c.BEUFIFO <= 0 || c.BEUWindow <= 0 || c.BEUFUs <= 0 {
			return fmt.Errorf("uarch: braid core needs BEU parameters")
		}
		if c.Clusters > 1 && c.BEUs%c.Clusters != 0 {
			return fmt.Errorf("uarch: %d BEUs do not divide into %d clusters", c.BEUs, c.Clusters)
		}
	}
	return c.checkCeilings()
}

// checkCeilings applies the ceilings above to a configuration whose fields
// are otherwise valid.
func (c *Config) checkCeilings() error {
	for _, f := range [...]struct {
		name     string
		val, max int
	}{
		{"fetch width", c.FetchWidth, maxWidth},
		{"fetch branches", c.FetchBranches, maxWidth},
		{"alloc width", c.AllocWidth, maxWidth},
		{"rename sources", c.RenameSrc, maxWidth},
		{"issue width", c.IssueWidth, maxWidth},
		{"retire width", c.RetireWidth, maxWidth},
		{"functional units", c.TotalFUs, maxWidth},
		{"read ports", c.RFReadPorts, maxWidth},
		{"write ports", c.RFWritePorts, maxWidth},
		{"bypass values", c.BypassValues, maxWidth},
		{"schedulers", c.Schedulers, maxWidth},
		{"steering FIFOs", c.SteerFIFOs, maxWidth},
		{"BEUs", c.BEUs, maxWidth},
		{"BEU functional units", c.BEUFUs, maxWidth},
		{"clusters", c.Clusters, maxWidth},
		{"ROB entries", c.ROB, maxEntries},
		{"register-file entries", c.RFEntries, maxEntries},
		{"scheduler entries", c.SchedEntries, maxEntries},
		{"steering FIFO depth", c.SteerFIFODeep, maxEntries},
		{"BEU FIFO entries", c.BEUFIFO, maxEntries},
		{"BEU window", c.BEUWindow, maxEntries},
		{"predictor entries", c.PredEntries, maxPredEntries},
		{"front-end depth", c.FrontDepth, mem.MaxLatency},
		{"misprediction penalty", c.MispredictMin, mem.MaxLatency},
		{"bypass levels", c.BypassLevels, mem.MaxLatency},
		{"external wakeup delay", c.ExtWakeupExtra, mem.MaxLatency},
		{"inter-cluster delay", c.InterClusterDelay, mem.MaxLatency},
		{"integer ALU latency", c.LatIntALU, mem.MaxLatency},
		{"integer multiply latency", c.LatIntMul, mem.MaxLatency},
		{"integer divide latency", c.LatIntDiv, mem.MaxLatency},
		{"FP add latency", c.LatFPAdd, mem.MaxLatency},
		{"FP multiply latency", c.LatFPMul, mem.MaxLatency},
		{"FP divide latency", c.LatFPDiv, mem.MaxLatency},
		{"AGU latency", c.LatAGU, mem.MaxLatency},
	} {
		if f.val > f.max {
			return fmt.Errorf("uarch: %s %d exceeds the ceiling %d", f.name, f.val, f.max)
		}
	}
	// The fetch-to-dispatch buffer holds FetchWidth × (FrontDepth+4)
	// instructions (newFrontend).
	if n := c.FetchWidth * (c.FrontDepth + 4); n > maxEntries {
		return fmt.Errorf("uarch: fetch buffer of %d instructions (fetch width %d, front-end depth %d) exceeds the ceiling %d",
			n, c.FetchWidth, c.FrontDepth, maxEntries)
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("uarch: %w", err)
	}
	// The completion calendar spans the longest issue-to-completion
	// latency, a load that misses to memory (calSpan).
	if l := c.LatAGU + c.Mem.L1D.Latency + c.Mem.L2.Latency + c.Mem.MemLatency; l > mem.MaxLatency {
		return fmt.Errorf("uarch: a load that misses to memory takes %d cycles, beyond the ceiling %d", l, mem.MaxLatency)
	}
	return nil
}

// redirectGap is the fetch-restart delay after a mispredicted branch
// executes, chosen so the minimum end-to-end penalty equals MispredictMin:
// the redirected instruction pays the gap, the front-end depth, and one
// issue cycle (verified to the cycle by TestMispredictPenaltyExact).
func (c *Config) redirectGap() uint64 {
	gap := c.MispredictMin - c.FrontDepth - 2
	if gap < 0 {
		gap = 0
	}
	return uint64(gap)
}

// scaledBranches keeps Table 4's 3-branches-per-cycle front end at 8 wide
// and scales it with width for the 4- and 16-wide design points.
func scaledBranches(width int) int {
	b := 3 * width / 8
	if b < 2 {
		b = 2
	}
	return b
}

// Latencies indexed by class are resolved through this helper.
func defaultLatencies(c *Config) {
	c.LatIntALU, c.LatIntMul, c.LatIntDiv = 1, 4, 12
	c.LatFPAdd, c.LatFPMul, c.LatFPDiv = 4, 4, 12
	c.LatAGU = 1
}

// OutOfOrderConfig returns Table 4's aggressive conventional out-of-order
// machine scaled to the given issue width (8 is the paper's default; 4 and
// 16 appear in Figures 1 and 13).
func OutOfOrderConfig(width int) Config {
	c := Config{
		Core:          CoreOutOfOrder,
		FetchWidth:    width,
		FetchBranches: scaledBranches(width),
		FrontDepth:    12,
		AllocWidth:    width,
		RenameSrc:     2 * width,
		MispredictMin: 23,
		IssueWidth:    width,
		TotalFUs:      width,
		ROB:           64 * width,
		RFEntries:     32 * width,
		RFReadPorts:   2 * width,
		RFWritePorts:  width,
		BypassLevels:  3,
		BypassValues:  width,
		// Figure 5's own shape (only -8% at 32 registers) requires the
		// conventional machine to free entries when values die, not at
		// retirement; the paper's §6.3 attributes exactly this to
		// virtual-physical registers with dead-value information.
		DeadValueRelease: true,
		Schedulers:       width,
		SchedEntries:     32,
		Mem:              mem.DefaultConfig(),
		MaxCycles:        50_000_000,
	}
	defaultLatencies(&c)
	return c
}

// BraidConfig returns Table 4's braid microarchitecture scaled to the given
// issue width: width BEUs of 2 functional units each, a 32-entry FIFO and
// 2-entry window per BEU, an 8-entry external register file with 6R/3W ports
// at 8 wide, a 1-level × 2-value bypass, and a 4-stage-shorter pipeline.
func BraidConfig(width int) Config {
	rp := 6 * width / 8
	if rp < 2 {
		rp = 2
	}
	wp := 3 * width / 8
	if wp < 1 {
		wp = 1
	}
	c := Config{
		Core:             CoreBraid,
		FetchWidth:       width,
		FetchBranches:    scaledBranches(width),
		DeadValueRelease: true,
		FrontDepth:       8,
		AllocWidth:       width / 2,
		RenameSrc:        width,
		MispredictMin:    19,
		IssueWidth:       width,
		TotalFUs:         2 * width,
		ROB:              64 * width,
		RFEntries:        width,
		RFReadPorts:      rp,
		RFWritePorts:     wp,
		BypassLevels:     1,
		BypassValues:     2,
		ExtWakeupExtra:   0,
		BEUs:             width,
		BEUFIFO:          32,
		BEUWindow:        2,
		BEUFUs:           2,
		Mem:              mem.DefaultConfig(),
		MaxCycles:        50_000_000,
	}
	defaultLatencies(&c)
	return c
}

// InOrderConfig returns the in-order baseline of Figure 13: conventional
// front end, scoreboarded in-order issue.
func InOrderConfig(width int) Config {
	c := OutOfOrderConfig(width)
	c.Core = CoreInOrder
	c.Schedulers, c.SchedEntries = 0, 0
	return c
}

// DepSteerConfig returns the dependence-based FIFO steering baseline
// (Palacharla, Jouppi & Smith), with width FIFOs of 32 entries.
func DepSteerConfig(width int) Config {
	c := OutOfOrderConfig(width)
	c.Core = CoreDepSteer
	c.Schedulers, c.SchedEntries = 0, 0
	c.SteerFIFOs = width
	c.SteerFIFODeep = 8
	return c
}
