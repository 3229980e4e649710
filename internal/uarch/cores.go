package uarch

import (
	"fmt"
	"strings"
)

// ---------------------------------------------------------------------------
// Conventional out-of-order core: distributed schedulers (Table 4: eight
// 32-entry windows), each selecting its oldest ready instruction per cycle.

type oooCore struct {
	cfg       *Config
	scheds    [][]*dyn
	freeSlots int // total unused scheduler entries (canAccept in O(1))
}

// newOOOCore builds the core in old's memory when old is a recycled oooCore.
func newOOOCore(cfg *Config, old core) *oooCore {
	c, _ := old.(*oooCore)
	if c == nil {
		c = &oooCore{}
	}
	c.cfg = cfg
	c.scheds = resized(c.scheds, cfg.Schedulers)
	for i := range c.scheds {
		c.scheds[i] = c.scheds[i][:0]
	}
	c.freeSlots = cfg.Schedulers * cfg.SchedEntries
	return c
}

func (c *oooCore) canAccept(*dyn) bool { return c.freeSlots > 0 }

func (c *oooCore) dispatch(d *dyn) {
	// Least-occupied steering (deterministic ties).
	best := -1
	for i, s := range c.scheds {
		if len(s) >= c.cfg.SchedEntries {
			continue
		}
		if best < 0 || len(s) < len(c.scheds[best]) {
			best = i
		}
	}
	d.sched = best
	c.scheds[best] = append(c.scheds[best], d)
	c.freeSlots--
}

func (c *oooCore) issue(m *Machine, t uint64) {
	// Each scheduler issues at most one instruction per cycle,
	// oldest-ready-first (entries are in age order by construction).
	for i := range c.scheds {
		s := c.scheds[i]
		if len(s) == 0 {
			continue
		}
		// Whole-scheduler skip: no entry's wake bound has arrived, so every
		// mightIssue below would return false — unless exhausted issue
		// bandwidth forces tryIssue calls for their IssueStalls accounting.
		if m.wakeMin[i] > t &&
			m.issuedThisCycle < m.cfg.IssueWidth && m.fusUsed < m.cfg.TotalFUs {
			continue
		}
		min, issued := neverWakes, false
		for k, d := range s {
			if !m.mightIssue(d, t) {
				if d.wakeLB < min {
					min = d.wakeLB
				}
				continue
			}
			if m.tryIssue(d, t) {
				c.scheds[i] = append(s[:k], s[k+1:]...)
				c.freeSlots++
				issued = true
				break
			}
			if w := d.wakeLB; w > t {
				if w < min {
					min = w
				}
			} else if t+1 < min {
				min = t + 1 // structural rejection: retry next cycle
			}
			if m.issuedThisCycle >= m.cfg.IssueWidth {
				return
			}
		}
		if !issued {
			m.wakeMin[i] = min
		}
	}
}

// nextWake: every scheduler entry is examined each cycle, so all of them
// bound the next possible issue.
func (c *oooCore) nextWake(m *Machine, t uint64) uint64 {
	w := neverWakes
	for _, s := range c.scheds {
		for _, d := range s {
			if dw := m.dynWake(d, t); dw < w {
				w = dw
			}
		}
	}
	return w
}

// ---------------------------------------------------------------------------
// In-order core: a scoreboarded queue issuing strictly in program order.

type inOrderCore struct {
	cfg   *Config
	queue dynRing
	depth int
}

// newInOrderCore builds the core in old's memory when old is a recycled
// inOrderCore.
func newInOrderCore(cfg *Config, old core) *inOrderCore {
	c, _ := old.(*inOrderCore)
	if c == nil {
		c = &inOrderCore{}
	}
	*c = inOrderCore{cfg: cfg, queue: dynRing{buf: c.queue.buf}, depth: 8 * cfg.IssueWidth}
	return c
}

func (c *inOrderCore) canAccept(*dyn) bool { return c.queue.len() < c.depth }

func (c *inOrderCore) dispatch(d *dyn) { c.queue.push(d) }

func (c *inOrderCore) issue(m *Machine, t uint64) {
	for c.queue.len() > 0 {
		d := c.queue.front()
		if !m.mightIssue(d, t) || !m.tryIssue(d, t) {
			return // strict in-order: stall at the first blocked instruction
		}
		c.queue.popFront()
	}
}

// nextWake: strict in-order issue means only the queue head can unblock.
func (c *inOrderCore) nextWake(m *Machine, t uint64) uint64 {
	if c.queue.len() == 0 {
		return neverWakes
	}
	return m.dynWake(c.queue.front(), t)
}

// ---------------------------------------------------------------------------
// Dependence-based steering core (Palacharla, Jouppi & Smith; the "dep" bars
// of Figure 13): instructions are steered into FIFOs so consumers sit
// behind their producers; only FIFO heads issue.

type depSteerCore struct {
	cfg   *Config
	fifos []dynRing
	heads []fifoHead // per-cycle scratch for issue's age sort

	// canAccept's steering result, reused by the dispatch that immediately
	// follows it (the engine admits then dispatches with no FIFO mutation in
	// between) so the FIFO scan runs once per instruction, not twice.
	steered   *dyn
	steeredTo int
}

type fifoHead struct {
	f int
	d *dyn
}

// newDepSteerCore builds the core in old's memory when old is a recycled
// depSteerCore.
func newDepSteerCore(cfg *Config, old core) *depSteerCore {
	c, _ := old.(*depSteerCore)
	if c == nil {
		c = &depSteerCore{}
	}
	fifos := resized(c.fifos, cfg.SteerFIFOs)
	for i := range fifos {
		fifos[i] = dynRing{buf: fifos[i].buf}
	}
	*c = depSteerCore{cfg: cfg, fifos: fifos, heads: c.heads[:0]}
	return c
}

// steerTarget applies Palacharla's heuristic: if the left source operand's
// producer sits at the tail of a FIFO, go behind it; otherwise take an empty
// FIFO. Examining a single operand is what keeps the steering simple enough
// to be "comparable complexity" to braids — and is also its weakness.
func (c *depSteerCore) steerTarget(d *dyn) int {
	if d.nsrcs > 0 {
		if p := d.srcs[0].producer; p != nil && !p.issued {
			for f := range c.fifos {
				q := &c.fifos[f]
				if n := q.len(); n > 0 && n < c.cfg.SteerFIFODeep && q.at(n-1) == p {
					return f
				}
			}
		}
	}
	for f := range c.fifos {
		if c.fifos[f].len() == 0 {
			return f
		}
	}
	return -1
}

func (c *depSteerCore) canAccept(d *dyn) bool {
	c.steered, c.steeredTo = d, c.steerTarget(d)
	return c.steeredTo >= 0
}

func (c *depSteerCore) dispatch(d *dyn) {
	f := c.steeredTo
	if d != c.steered {
		f = c.steerTarget(d)
	}
	c.steered = nil
	d.sched = f
	c.fifos[f].push(d)
}

func (c *depSteerCore) issue(m *Machine, t uint64) {
	// Heads only, oldest first across FIFOs.
	heads := c.heads[:0]
	for f := range c.fifos {
		if c.fifos[f].len() > 0 {
			heads = append(heads, fifoHead{f, c.fifos[f].front()})
		}
	}
	c.heads = heads[:0]
	for swapped := true; swapped; { // tiny fixed-size sort by age
		swapped = false
		for i := 0; i+1 < len(heads); i++ {
			if heads[i+1].d.seq < heads[i].d.seq {
				heads[i], heads[i+1] = heads[i+1], heads[i]
				swapped = true
			}
		}
	}
	for _, h := range heads {
		if m.issuedThisCycle >= m.cfg.IssueWidth {
			return
		}
		if m.mightIssue(h.d, t) && m.tryIssue(h.d, t) {
			c.fifos[h.f].popFront()
		}
	}
}

// nextWake: only FIFO heads are issue candidates, and nothing deeper can
// issue before its head does, so the heads bound the core's next event.
func (c *depSteerCore) nextWake(m *Machine, t uint64) uint64 {
	w := neverWakes
	for f := range c.fifos {
		if c.fifos[f].len() > 0 {
			if dw := m.dynWake(c.fifos[f].front(), t); dw < w {
				w = dw
			}
		}
	}
	return w
}

// ---------------------------------------------------------------------------
// Braid core: braids are distributed whole to braid execution units. A BEU
// owns one braid at a time ("a BEU can accept a new braid if it is not
// processing another braid", §3.3); its FIFO buffers that braid and the
// two-entry window at the head is examined for readiness each cycle, with
// two functional units per BEU. The internal register file is private to
// the braid and recycled when the braid finishes issuing.

type beu struct {
	fifo []*dyn
	busy bool // owns a braid whose instructions are not all issued
	open bool // still receiving the braid from distribute
}

type braidCore struct {
	cfg      *Config
	beus     []beu
	cur      int    // BEU receiving the current braid; -1 if none
	nextRR   int    // round-robin allocation pointer
	freeCnt  int    // BEUs not busy (admission checks in O(1))
	braidSeq uint64 // increments at each braid start

	// serialized routes every braid to BEU 0: §3.4's exception mode,
	// which turns the machine into a strict in-order processor while the
	// handler runs.
	serialized bool
}

// setSerialized enters or leaves §3.4's exception mode. The engine only
// toggles it with the pipeline drained, so every braid has fully issued and
// any BEU still marked as receiving can be closed and released.
func (c *braidCore) setSerialized(on bool) {
	c.serialized = on
	c.cur = -1
	for i := range c.beus {
		c.beus[i].open = false
		if len(c.beus[i].fifo) == 0 && c.beus[i].busy {
			c.beus[i].busy = false
			c.freeCnt++
		}
	}
}

// newBraidCore builds the core in old's memory when old is a recycled
// braidCore.
func newBraidCore(cfg *Config, old core) *braidCore {
	c, _ := old.(*braidCore)
	if c == nil {
		c = &braidCore{}
	}
	beus := resized(c.beus, cfg.BEUs)
	for i := range beus {
		beus[i] = beu{fifo: beus[i].fifo[:0]}
	}
	*c = braidCore{cfg: cfg, beus: beus, cur: -1, freeCnt: cfg.BEUs}
	return c
}

func (c *braidCore) freeBEU() int {
	if c.serialized {
		if !c.beus[0].busy {
			return 0
		}
		return -1
	}
	if c.freeCnt == 0 {
		return -1
	}
	i := c.nextRR
	for k := 0; k < len(c.beus); k++ {
		if !c.beus[i].busy {
			return i
		}
		if i++; i == len(c.beus) {
			i = 0
		}
	}
	panic("uarch: braid freeCnt out of sync with busy flags")
}

// anyFree is freeBEU's boolean shadow, O(1) via the busy counter.
func (c *braidCore) anyFree() bool {
	if c.serialized {
		return !c.beus[0].busy
	}
	return c.freeCnt > 0
}

func (c *braidCore) canAccept(d *dyn) bool {
	if c.cfg.BEUQueueBraids {
		if d.braidStart || c.cur < 0 {
			return c.pickQueuedBEU() >= 0
		}
		return len(c.beus[c.cur].fifo) < c.cfg.BEUFIFO
	}
	if d.braidStart || c.cur < 0 {
		// Seeing the next braid's first instruction means the current
		// braid has fully dispatched (braids are consecutive). Its BEU
		// is closed — and released once its FIFO has drained — by
		// dispatch; the admission check only has to account for that
		// release, which keeps a one-BEU machine live.
		if c.anyFree() {
			return true
		}
		return c.cur >= 0 && c.beus[c.cur].open && len(c.beus[c.cur].fifo) == 0
	}
	return len(c.beus[c.cur].fifo) < c.cfg.BEUFIFO
}

// pickQueuedBEU chooses the least-loaded BEU with FIFO room.
func (c *braidCore) pickQueuedBEU() int {
	best := -1
	for i := range c.beus {
		if len(c.beus[i].fifo) >= c.cfg.BEUFIFO {
			continue
		}
		if best < 0 || len(c.beus[i].fifo) < len(c.beus[best].fifo) {
			best = i
		}
	}
	return best
}

func (c *braidCore) dispatch(d *dyn) {
	if c.cfg.BEUQueueBraids {
		if d.braidStart || c.cur < 0 {
			c.cur = c.pickQueuedBEU()
			c.braidSeq++
		}
		d.beu = c.cur
		d.sched = c.cur // wake-cache group (Machine.wakeMin) is the BEU
		d.braidID = c.braidSeq
		c.beus[c.cur].fifo = append(c.beus[c.cur].fifo, d)
		return
	}
	if d.braidStart || c.cur < 0 {
		// Close the previous braid's BEU (all side effects live here, so
		// canAccept stays a pure admission check).
		if c.cur >= 0 {
			c.beus[c.cur].open = false
			if len(c.beus[c.cur].fifo) == 0 {
				c.beus[c.cur].busy = false
				c.freeCnt++
			}
		}
		i := c.freeBEU()
		c.cur = i
		c.nextRR = (i + 1) % len(c.beus)
		c.beus[i].busy = true
		c.beus[i].open = true
		c.freeCnt--
		c.braidSeq++
	}
	d.beu = c.cur
	d.sched = c.cur // wake-cache group (Machine.wakeMin) is the BEU
	d.braidID = c.braidSeq
	c.beus[c.cur].fifo = append(c.beus[c.cur].fifo, d)
}

// checkInvariants asserts the braid core's structural rules (called from the
// engine's paranoid checker): at most one BEU receives a braid, an open BEU
// is busy and is the current one, and canAccept is a pure admission check —
// no state mutation on either the braid-start or the mid-braid path.
func (c *braidCore) checkInvariants(t uint64) {
	open := 0
	for i := range c.beus {
		b := &c.beus[i]
		if b.open {
			open++
			if !b.busy {
				panic(fmt.Sprintf("uarch: cycle %d: BEU %d open but not busy", t, i))
			}
			if i != c.cur {
				panic(fmt.Sprintf("uarch: cycle %d: BEU %d open but cur=%d", t, i, c.cur))
			}
		}
	}
	if open > 1 {
		panic(fmt.Sprintf("uarch: cycle %d: %d BEUs open", t, open))
	}
	free := 0
	for i := range c.beus {
		if !c.beus[i].busy {
			free++
		}
	}
	if free != c.freeCnt {
		panic(fmt.Sprintf("uarch: cycle %d: freeCnt %d but %d BEUs idle", t, c.freeCnt, free))
	}
	before := c.snapshot()
	c.canAccept(&dyn{braidStart: true, beu: -1, sched: -1})
	c.canAccept(&dyn{beu: -1, sched: -1})
	if c.snapshot() != before {
		panic(fmt.Sprintf("uarch: cycle %d: canAccept mutated braid-core state", t))
	}
}

// snapshot summarizes the braid core's mutable state for the purity check.
func (c *braidCore) snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cur=%d rr=%d seq=%d ser=%v", c.cur, c.nextRR, c.braidSeq, c.serialized)
	for i := range c.beus {
		fmt.Fprintf(&b, " %d:%v/%v/%d", i, c.beus[i].busy, c.beus[i].open, len(c.beus[i].fifo))
	}
	return b.String()
}

func (c *braidCore) issue(m *Machine, t uint64) {
	for i := range c.beus {
		b := &c.beus[i]
		if len(b.fifo) == 0 {
			if b.busy && !b.open {
				b.busy = false // braid fully issued: release the BEU
				c.freeCnt++
			}
			continue
		}
		// Whole-BEU skip: no windowed entry's wake bound has arrived (see
		// oooCore.issue for the exhausted-bandwidth exception).
		if m.wakeMin[i] > t &&
			m.issuedThisCycle < m.cfg.IssueWidth && m.fusUsed < m.cfg.TotalFUs {
			continue
		}
		issued := 0
		min := neverWakes
		head := b.fifo[0].braidID
		// Examine the window at the FIFO head; issue ready entries
		// (out of order within the window), up to the per-BEU FUs.
		for w := 0; w < c.cfg.BEUWindow && w < len(b.fifo) && issued < c.cfg.BEUFUs; {
			d := b.fifo[w]
			if c.cfg.BEUQueueBraids && d.braidID != head {
				break // the queued next braid waits for the head braid
			}
			if !m.mightIssue(d, t) {
				if d.wakeLB < min {
					min = d.wakeLB
				}
				w++
				continue
			}
			if m.tryIssue(d, t) {
				b.fifo = append(b.fifo[:w], b.fifo[w+1:]...)
				issued++
				continue // the window slides up; re-examine slot w
			}
			if lb := d.wakeLB; lb > t {
				if lb < min {
					min = lb
				}
			} else if t+1 < min {
				min = t + 1 // structural rejection: retry next cycle
			}
			w++
			if m.issuedThisCycle >= m.cfg.IssueWidth {
				return
			}
		}
		if issued == 0 {
			m.wakeMin[i] = min
		}
		if len(b.fifo) == 0 && b.busy && !b.open {
			b.busy = false
			c.freeCnt++
		}
	}
}

// nextWake: each BEU examines only the window at its FIFO head (stopping at
// a queued next braid); deeper entries cannot issue before the window moves.
func (c *braidCore) nextWake(m *Machine, t uint64) uint64 {
	w := neverWakes
	for i := range c.beus {
		b := &c.beus[i]
		if len(b.fifo) == 0 {
			continue
		}
		head := b.fifo[0].braidID
		for k := 0; k < c.cfg.BEUWindow && k < len(b.fifo); k++ {
			d := b.fifo[k]
			if c.cfg.BEUQueueBraids && d.braidID != head {
				break
			}
			if dw := m.dynWake(d, t); dw < w {
				w = dw
			}
		}
	}
	return w
}
