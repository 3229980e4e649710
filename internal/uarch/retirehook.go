package uarch

// RetireEvent describes one instruction committing, in retirement (=
// program) order: what it did and when it passed each pipeline stage.
// SimulateObserved hands one to its observer per retiring instruction.
// internal/check replays an interp.Machine in lockstep against the stream
// and faults on the first field that disagrees with the functional
// reference, pinning the engine's retired work — order, branch outcomes,
// memory addresses, access widths — to the architectural oracle at
// single-instruction granularity; braidsim formats the stage cycles into its
// text trace and Konata log.
type RetireEvent struct {
	Seq      uint64 // dynamic sequence number, 0-based fetch order
	Index    int    // static instruction index in the program
	Cycle    uint64 // retire cycle
	Addr     uint64 // memory address (loads and stores)
	MemBytes uint64 // access width in bytes (loads and stores)

	// Stage cycles: fetched, dispatched, issued, execution finished,
	// written back (completed).
	Fetch, Dispatch, Issue, Done, Writeback uint64

	BEU int // owning BEU on the braid core, -1 on the others

	Taken        bool // branch outcome
	Mispredicted bool // branch left the machine on the recovery path

	IsLoad, IsStore, IsBranch bool
}
