package explore

import (
	"fmt"

	"braid/internal/journal"
)

// Meta pins the search parameters a checkpoint was taken under. Resume
// refuses a mismatch: silently continuing a search with different
// parameters would blend two different searches into one front.
type Meta struct {
	Lattice   int      `json:"lattice"` // latticeVersion the genomes index into
	Seed      int64    `json:"seed"`
	Pop       int      `json:"pop"`
	Budget    int      `json:"budget"`
	Workloads []string `json:"workloads"`
	Sampling  string   `json:"sampling,omitempty"` // uarch.Sampling.String(), "" exact
	DynTarget uint64   `json:"dyn_target"`         // suite calibration target
	Inject    int      `json:"inject,omitempty"`   // test-hook fault position
}

// ckptLine is one JSONL record: exactly one of the kinds. The meta line is
// first; each completed generation appends one gen line containing the
// post-selection population (order significant — tournament selection reads
// it positionally) and the evaluations that generation performed.
type ckptLine struct {
	Kind string `json:"kind"` // "meta" or "gen"

	Meta *Meta `json:"meta,omitempty"`

	Gen        int      `json:"gen,omitempty"`
	Evals      int      `json:"evals,omitempty"` // cumulative unique evaluations
	Population []Genome `json:"population,omitempty"`
	Fresh      []Eval   `json:"fresh,omitempty"` // evaluations this generation ran
}

// Checkpoint is the append-only JSONL persistence for a search, kept in an
// internal/journal file. One record per completed generation keeps the
// torn-write window to a single line; the journal drops a torn final line
// (SIGKILL mid-append) on load, so resume restarts from the last complete
// generation.
type Checkpoint struct {
	j    *journal.Journal
	gens []ckptLine // complete generation records, ascending contiguous
}

// OpenCheckpoint opens path for a search with the given meta. With resume
// false the file is created or truncated and the meta line written; with
// resume true an existing file is loaded — its meta must equal meta — and
// subsequent generations append after the ones already recorded. Resuming a
// missing or empty file degrades to a fresh start.
func OpenCheckpoint(path string, meta Meta, resume bool) (*Checkpoint, error) {
	meta.Lattice = latticeVersion
	j, lines, err := journal.Open[ckptLine](path, resume)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	ck := &Checkpoint{j: j}
	if len(lines) == 0 {
		err = j.Append(ckptLine{Kind: "meta", Meta: &meta})
	} else {
		ck.gens, err = validate(lines, meta)
	}
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("explore: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// validate checks a resumed checkpoint's lines — one meta line equal to want,
// then contiguous generations over lattice genomes — and returns the
// generations.
func validate(lines []ckptLine, want Meta) ([]ckptLine, error) {
	if lines[0].Kind != "meta" || lines[0].Meta == nil {
		return nil, fmt.Errorf("no meta line")
	}
	if m := *lines[0].Meta; !metaEqual(m, want) {
		return nil, fmt.Errorf("taken with different parameters\n  have: %s\n  want: %s\n(delete the file or rerun with matching flags)",
			metaString(m), metaString(want))
	}
	gens := lines[1:]
	for i, line := range gens {
		switch {
		case line.Kind != "gen":
			return nil, fmt.Errorf("misplaced or unknown record kind %q", line.Kind)
		case line.Gen != i:
			return nil, fmt.Errorf("generation %d out of order (want %d)", line.Gen, i)
		}
		for _, g := range line.Population {
			if !g.valid() {
				return nil, fmt.Errorf("generation %d holds a genome outside the lattice", line.Gen)
			}
		}
		for _, e := range line.Fresh {
			if !e.Genome.valid() {
				return nil, fmt.Errorf("generation %d evaluated a genome outside the lattice", line.Gen)
			}
		}
	}
	return gens, nil
}

func metaEqual(a, b Meta) bool {
	if a.Lattice != b.Lattice || a.Seed != b.Seed || a.Pop != b.Pop ||
		a.Budget != b.Budget || a.Sampling != b.Sampling ||
		a.DynTarget != b.DynTarget || a.Inject != b.Inject ||
		len(a.Workloads) != len(b.Workloads) {
		return false
	}
	for i := range a.Workloads {
		if a.Workloads[i] != b.Workloads[i] {
			return false
		}
	}
	return true
}

func metaString(m Meta) string {
	return fmt.Sprintf("lattice=%d seed=%d pop=%d budget=%d workloads=%v sampling=%q dyn=%d inject=%d",
		m.Lattice, m.Seed, m.Pop, m.Budget, m.Workloads, m.Sampling, m.DynTarget, m.Inject)
}

// Generations reports how many complete generations the checkpoint holds.
func (ck *Checkpoint) Generations() int { return len(ck.gens) }

// appendGen records one completed generation: cumulative evaluation count,
// the post-selection population, and the evaluations performed. One journal
// record, so a crash tears at most this line.
func (ck *Checkpoint) appendGen(gen, evals int, population []Genome, fresh []Eval) error {
	return ck.j.Append(ckptLine{Kind: "gen", Gen: gen, Evals: evals, Population: population, Fresh: fresh})
}

// Close releases the underlying file, reporting any failed append.
func (ck *Checkpoint) Close() error { return ck.j.Close() }

// restore seeds the searcher from a checkpoint's completed generations and
// returns the next generation index to run. No simulation happens here: the
// archive is rebuilt from recorded evaluations, so a resumed search only
// pays for generations the original never finished. (Points the memo cache
// would recompute identically anyway — both are deterministic — but resume
// must not depend on the simulator at all.)
func (s *searcher) restore(ck *Checkpoint) int {
	for _, gen := range ck.gens {
		for _, e := range gen.Fresh {
			s.archiveEval(e)
		}
		s.pop = append([]Genome(nil), gen.Population...)
		s.evals = gen.Evals
	}
	return len(ck.gens)
}
