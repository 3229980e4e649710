package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"braid/internal/isa"
	"braid/internal/uarch"
)

// pipelineLogs is braidsim's retire observer: it writes each retired
// instruction's stage cycles to the text trace and to the Kanata log (the
// format the Konata pipeline viewer reads), each when requested.
type pipelineLogs struct {
	prog          *isa.Program
	trace, konata *logSink // nil when not requested
}

// logSink is one log, buffered, of at most limit instructions (all when
// limit <= 0). A bufio.Writer keeps its first write error and writes nothing
// after it, so a full disk or a closed pipe stops the log there, and flush
// reports the error.
type logSink struct {
	*bufio.Writer
	name     string // "trace" or "konata", named in flush's error
	limit, n int
}

// next claims the next instruction's entry and returns its 0-based id, or
// false when s is nil or full.
func (s *logSink) next() (int, bool) {
	if s == nil || (s.limit > 0 && s.n >= s.limit) {
		return 0, false
	}
	s.n++
	return s.n - 1, true
}

// startTrace requests the text trace: per instruction its sequence number,
// static index, fetch / dispatch / issue / execute-done / writeback / retire
// cycles, its BEU on a braid core, and the instruction.
func (l *pipelineLogs) startTrace(w io.Writer, limit int) {
	l.trace = &logSink{Writer: bufio.NewWriter(w), name: "trace", limit: limit}
	fmt.Fprintf(l.trace, "%6s %5s %7s %7s %7s %7s %7s %7s %4s  %s\n",
		"seq", "idx", "fetch", "disp", "issue", "done", "wb", "retire", "beu", "instruction")
}

// startKonata requests the Kanata log. Each instruction's stages are written
// at its retirement with absolute cycle positioning, which Kanata accepts.
func (l *pipelineLogs) startKonata(w io.Writer, limit int) {
	l.konata = &logSink{Writer: bufio.NewWriter(w), name: "konata", limit: limit}
	l.konata.WriteString("Kanata\t0004\n")
}

func (l *pipelineLogs) retire(ev uarch.RetireEvent) {
	if _, ok := l.trace.next(); ok {
		beu := "-"
		if ev.BEU >= 0 {
			beu = strconv.Itoa(ev.BEU)
		}
		fmt.Fprintf(l.trace, "%6d %5d %7d %7d %7d %7d %7d %7d %4s  %s\n", ev.Seq, ev.Index,
			ev.Fetch, ev.Dispatch, ev.Issue, ev.Done, ev.Writeback, ev.Cycle, beu, &l.prog.Instrs[ev.Index])
	}
	id, ok := l.konata.next()
	if !ok {
		return
	}
	label := l.prog.Instrs[ev.Index].String()
	if ev.BEU >= 0 {
		label = fmt.Sprintf("[beu %d] %s", ev.BEU, label)
	}
	fmt.Fprintf(l.konata, "C=\t%d\nI\t%d\t%d\t0\nL\t%d\t0\t%s\n", ev.Fetch, id, ev.Seq, id, label)
	at := [...]uint64{ev.Fetch, ev.Dispatch, ev.Issue, ev.Done, ev.Writeback, ev.Cycle}
	for i, stage := range [...]string{"F", "Ds", "X", "Wb", "Cm"} {
		fmt.Fprintf(l.konata, "C=\t%d\nS\t%d\t0\t%s\nC=\t%d\nE\t%d\t0\t%s\n",
			at[i], id, stage, max(at[i], at[i+1]), id, stage)
	}
	fmt.Fprintf(l.konata, "C=\t%d\nR\t%d\t%d\t0\n", ev.Cycle, id, id)
}

// observer is l.retire, or nil when no log is requested, so a run without
// logs pays nothing per retirement.
func (l *pipelineLogs) observer() func(uarch.RetireEvent) {
	if l.trace == nil && l.konata == nil {
		return nil
	}
	return l.retire
}

// flush writes out the requested logs and returns the first failed one's
// error, naming its sink.
func (l *pipelineLogs) flush() error {
	var first error
	for _, s := range []*logSink{l.trace, l.konata} {
		if s == nil {
			continue
		}
		if err := s.Flush(); err != nil && first == nil {
			first = fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return first
}
