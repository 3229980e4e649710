package experiments

import (
	"fmt"

	"braid/internal/isa"
	"braid/internal/journal"
	"braid/internal/uarch"
)

// ckptRecord is one completed simulation in the append-only JSONL
// checkpoint: the memo key plus its result. Go's JSON encoding round-trips
// float64 and every Config field exactly, so a resumed point is bit-identical
// to rerunning it (the simulator is deterministic). Only successes are
// persisted — failures must re-execute so a fixed environment can pass.
type ckptRecord struct {
	Bench   string `json:"bench"`
	Braided bool   `json:"braided"`
	// Prog is the hex SHA-256 of the simulated program's .brd image
	// (isa.EncodeImage). A record restores only into a suite whose program
	// has this digest, so a journal written at another -dyn (another
	// iteration count, so another program) restores nothing. A record
	// written before the field existed has none and is refused.
	Prog string       `json:"prog,omitempty"`
	IPC  float64      `json:"ipc"`
	Cfg  uarch.Config `json:"cfg"`
	// Sampling marks interval-sampled points; absent (nil) means exact.
	// Sampled and exact records restore into disjoint memo keyspaces.
	Sampling *uarch.Sampling `json:"sampling,omitempty"`
}

// binary names one of a benchmark's two programs.
type binary struct {
	bench   string
	braided bool
}

// ckptDone is the shared pre-closed latch for restored memo cells.
var ckptDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// OpenCheckpoint attaches an append-only JSONL checkpoint (internal/journal)
// at path: every simulation that completes from now on is persisted. Without
// resume the file starts empty. With resume, existing records of this
// suite's programs are first loaded into the memo cache (the returned count),
// so an interrupted or crashed sweep restarts from its completed points; a
// torn final line is dropped, and any other malformed line is an error.
func (w *Workloads) OpenCheckpoint(path string, resume bool) (int, error) {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	if w.ckpt != nil {
		return 0, fmt.Errorf("experiments: checkpoint already open")
	}
	progs, err := w.programDigests()
	if err != nil {
		return 0, fmt.Errorf("experiments: checkpoint: %w", err)
	}
	j, recs, err := journal.Open[ckptRecord](path, resume)
	if err != nil {
		return 0, fmt.Errorf("experiments: checkpoint: %w", err)
	}
	restored, err := w.restore(recs, progs)
	if err != nil {
		j.Close()
		return 0, fmt.Errorf("experiments: checkpoint %s: %w", path, err)
	}
	w.ckpt, w.ckptProgs = j, progs
	return restored, nil
}

// programDigests hashes both programs of every benchmark in the suite.
func (w *Workloads) programDigests() (map[binary]string, error) {
	progs := make(map[binary]string, 2*len(w.Benches))
	for _, b := range w.Benches {
		for _, braided := range []bool{false, true} {
			_, digest, err := isa.EncodeImage(b.program(braided))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			progs[binary{b.Name, braided}] = digest
		}
	}
	return progs, nil
}

// CloseCheckpoint detaches and closes the checkpoint, if any. It returns the
// first error appending a point hit, so a sweep whose checkpoint stopped
// recording (a full disk, say) does not pass for a resumable one.
func (w *Workloads) CloseCheckpoint() error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	if w.ckpt == nil {
		return nil
	}
	err := w.ckpt.Close()
	w.ckpt = nil
	return err
}

// restore replays the records of the suite's programs into the memo cache
// as finished cells, deduplicating repeated keys with last-write-wins: a
// kill → resume → kill → resume cycle re-appends keys the file already
// holds, and the newest record is the authoritative one. The restored count
// is unique keys, not lines. A record whose digest names another program is
// skipped: its result is not this suite's.
func (w *Workloads) restore(recs []ckptRecord, progs map[binary]string) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	restored := 0
	for i, rec := range recs {
		if rec.Bench == "" || rec.Prog == "" {
			// braidtune's generation journal, which it kept before it
			// shared this one, holds "meta" and "gen" records; they
			// decode here with no benchmark. A point written before
			// records carried their program's digest could belong to any
			// program of that name, at any -dyn.
			return 0, fmt.Errorf("record %d is not a simulation point with a program digest (a journal from an older braidbench or braidtune?); rerun without -resume", i+1)
		}
		if rec.Prog != progs[binary{rec.Bench, rec.Braided}] {
			continue
		}
		var sp uarch.Sampling
		if rec.Sampling != nil {
			sp = *rec.Sampling
		}
		key := memoKey{rec.Bench, rec.Braided, rec.Cfg, sp}
		if _, ok := w.memo[key]; !ok {
			restored++
		}
		w.memo[key] = &memoCell{done: ckptDone, ipc: rec.IPC}
	}
	return restored, nil
}

// checkpointPoint appends one completed simulation.
func (w *Workloads) checkpointPoint(key memoKey, ipc float64) {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	if w.ckpt == nil {
		return
	}
	rec := ckptRecord{Bench: key.bench, Braided: key.braided, IPC: ipc, Cfg: key.cfg,
		Prog: w.ckptProgs[binary{key.bench, key.braided}]}
	if key.sampling.Enabled() {
		sp := key.sampling
		rec.Sampling = &sp
	}
	// The journal keeps the first failure and CloseCheckpoint returns it;
	// the sweep itself carries on, since its results are still correct.
	_ = w.ckpt.Append(&rec)
}
