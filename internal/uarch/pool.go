package uarch

import (
	"runtime"
	"sync"

	"braid/internal/isa"
	"braid/internal/mem"
)

// Run recycling (DESIGN.md §5). A run sizes its working memory as it starts
// and warms up: a copy of the warm cache hierarchy (~306 KiB at Table 4's
// geometry), the dyn-arena chunks, the completion calendar, the rings and the
// cores' queues. Every machine gives it back here when its run returns —
// SimulateObserved's, and sampled mode's interval machines — and the next run
// starts from that memory instead of allocating its own: the hierarchy's
// arrays are refilled from the prototype in place, and everything else is
// reused empty, capacity kept. A machine whose run panicked is not recycled:
// the panic may have left any structure half updated.

// spares holds the recycled memory, at most spareLimit() entries per list.
var spares struct {
	sync.Mutex
	machines []*Machine       // stripped shells (see strip)
	hiers    []*mem.Hierarchy // refilled from a prototype by the next run
}

// spareLimit is one entry per processor, as many runs as can make progress
// at once. It is a variable only so tests can run on fresh memory.
var spareLimit = func() int { return runtime.GOMAXPROCS(0) }

// A run whose arena or calendar outgrew these is not recycled, so one
// outsized configuration cannot park its arrays in the pool. Every machine
// in the repository stays below them: ooo/16 carves at most 6 chunks, and
// Table 4's latencies need a 512-bucket calendar.
const (
	maxSpareChunks = 8
	maxSpareSpan   = 1 << 12
)

// acquire builds the machine for a run of p on cfg, after validating cfg: the
// machine and its hierarchy come from pooled memory if there is any.
func acquire(p *isa.Program, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shell, spare := takeSpares(true)
	hier, err := warmHierarchy(p, cfg.Mem, spare)
	if err != nil {
		return nil, err
	}
	return newMachine(p, cfg, hier, shell)
}

// takeSpares pops a recycled machine shell and, when hier is set, a
// hierarchy; either is nil when none is pooled.
func takeSpares(hier bool) (*Machine, *mem.Hierarchy) {
	spares.Lock()
	defer spares.Unlock()
	shell := pop(&spares.machines)
	if !hier {
		return shell, nil
	}
	return shell, pop(&spares.hiers)
}

// release copies out the Stats of m's run, which ended with err without
// panicking, and recycles m with its hierarchy. The copy keeps the caller's
// Stats from aliasing memory the next run reuses.
func (m *Machine) release(err error) (*Stats, error) {
	var st *Stats
	if err == nil {
		out := m.stats
		st = &out
	}
	m.recycle(m.hier)
	return st, err
}

// recycle pools m's memory, and hier's when it is not nil; m must not be
// used again.
func (m *Machine) recycle(hier *mem.Hierarchy) {
	keep := len(m.chunks) <= maxSpareChunks && len(m.wbcal) <= maxSpareSpan
	if keep {
		m.strip()
	}
	limit := spareLimit()
	spares.Lock()
	defer spares.Unlock()
	if keep && len(spares.machines) < limit {
		spares.machines = append(spares.machines, m)
	}
	if hier != nil && len(spares.hiers) < limit {
		spares.hiers = append(spares.hiers, hier)
	}
}

// strip empties m down to the memory a later run reuses: the arena's chunks,
// the calendar's buckets, the buffers of the rings and lists, and the front
// end and core with their queues. Every other field returns to its zero
// value, so the shell pins nothing of its last run (program, trace, sinks)
// and newMachine builds on it exactly as on a new Machine.
func (m *Machine) strip() {
	for i := range m.wbcal {
		m.wbcal[i] = m.wbcal[i][:0]
	}
	*m.fe = frontend{queue: dynRing{buf: m.fe.queue.buf}}
	*m = Machine{
		fe:       m.fe,
		cre:      m.cre,
		rob:      dynRing{buf: m.rob.buf},
		stores:   dynRing{buf: m.stores.buf},
		wbcal:    m.wbcal,
		wbstall:  m.wbstall[:0],
		wbnext:   m.wbnext[:0],
		freeDyns: m.freeDyns[:0],
		chunks:   m.chunks,
		wakeMin:  m.wakeMin,
	}
}

// pop removes and returns the last element of *s, or the zero value.
func pop[T any](s *[]T) T {
	var v T
	if n := len(*s); n > 0 {
		v, (*s)[n-1] = (*s)[n-1], v
		*s = (*s)[:n-1]
	}
	return v
}

// resized returns s with length n, reusing its backing array when it is
// large enough; callers reset the elements they keep.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
