package explore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"braid/internal/experiments"
	"braid/internal/uarch"
)

// Options parameterizes a Search.
type Options struct {
	Seed   int64 // RNG seed; same seed + same suite => identical front
	Pop    int   // population size (default 16)
	Budget int   // total genome evaluations before stopping (default 6*Pop)

	Log io.Writer // per-generation progress lines (nil: quiet)
}

func (o Options) withDefaults() Options {
	if o.Pop <= 0 {
		o.Pop = 16
	}
	if o.Budget <= 0 {
		o.Budget = 6 * o.Pop
	}
	return o
}

// Eval is one evaluated genome: the two objective values and provenance.
// Infeasible evaluations (a contained fault or cycle-limit on any workload)
// keep their slot in the archive — rediscovering the same genome must not
// re-simulate it — but never enter the front.
type Eval struct {
	Genome   Genome  `json:"genome"`
	IPC      float64 `json:"ipc"`  // geomean over the workload set (0 if infeasible)
	Cost     float64 `json:"cost"` // uarch.EstimateComplexity total
	Feasible bool    `json:"feasible"`
	Gen      int     `json:"gen"` // generation first evaluated
}

// Result is a finished (or budget-exhausted) search.
type Result struct {
	Front       []Eval // non-dominated feasible evaluations, canonical order
	Digest      string // sha256 over the canonical front JSON
	Generations int    // completed generations (including generation 0)
	Evaluations int    // unique genomes simulated
}

// Meta records the parameters a front was searched under, for braidtune's
// -front file.
type Meta struct {
	Lattice   int      `json:"lattice"` // LatticeVersion the genomes index into
	Seed      int64    `json:"seed"`
	Pop       int      `json:"pop"`
	Budget    int      `json:"budget"`
	Workloads []string `json:"workloads"`
	Sampling  string   `json:"sampling,omitempty"` // uarch.Sampling.String(), "" exact
	DynTarget uint64   `json:"dyn_target"`         // suite calibration target
}

// Search runs the NSGA-II-lite loop over the given benchmark subset of w.
// Determinism contract: with equal (seed, pop, budget, workload set,
// sampling geometry, suite dynTarget), the returned front and digest are
// byte-identical regardless of w's job count, runner (local or remote — both
// are deterministic), or how many times the search was interrupted and
// resumed. ctx cancellation stops the search between generations; the error
// wraps ctx.Err().
//
// Search keeps no state of its own across processes. To resume, rerun it
// over a suite whose checkpoint (Workloads.OpenCheckpoint) restored the
// interrupted run's points: every generation reseeds its RNG from (seed,
// generation index) and the genetic operators are serial, so the rerun
// retraces the interrupted run generation by generation, and the memo cache
// answers every point the journal holds without simulating it. Contained
// failures (a fault, an exhausted cycle budget) are not journaled; they
// re-simulate to the same verdict. A transient failure (a -sim-timeout
// deadline, an unreachable fleet) scores its machine infeasible in this run
// only and may succeed on resume, so a front that depended on one falls
// outside the contract.
func Search(ctx context.Context, w *experiments.Workloads, benches []*experiments.Bench, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if len(benches) == 0 {
		return nil, fmt.Errorf("explore: no workloads to evaluate")
	}

	s := &searcher{
		w:       w,
		benches: benches,
		opt:     opt,
		archive: map[Genome]*Eval{},
	}

	gen := 0
	// The budget counts unique evaluations; a pathological lattice corner
	// where every offspring is already archived would stall it, so a
	// generous generation cap bounds the loop deterministically.
	maxGens := 4*opt.Budget/opt.Pop + 8
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("explore: search stopped: %w", err)
		}
		if gen > 0 && (s.evals >= opt.Budget || gen >= maxGens) {
			break
		}
		rng := genRNG(opt.Seed, gen)
		var cohort []Genome
		if gen == 0 {
			cohort = s.initialPopulation(rng)
		} else {
			cohort = s.offspring(rng)
		}
		fresh, err := s.evaluate(cohort, gen)
		if err != nil {
			return nil, err
		}
		s.selectNext(cohort)
		if opt.Log != nil {
			front := s.front()
			fmt.Fprintf(opt.Log, "explore: gen %d: %d evals (%d new), front %d points%s\n",
				gen, s.evals, fresh, len(front), bestPoint(front))
		}
		gen++
	}

	front := s.front()
	digest, err := FrontDigest(front)
	if err != nil {
		return nil, err
	}
	return &Result{Front: front, Digest: digest, Generations: gen, Evaluations: s.evals}, nil
}

// SelectBenches resolves a workload-name subset against a loaded suite, in
// the order given (the geomean is computed in this order, so it is part of
// the determinism contract and of the -front meta). Empty names selects
// the whole suite in suite order.
func SelectBenches(w *experiments.Workloads, names []string) ([]*experiments.Bench, error) {
	if len(names) == 0 {
		return w.Benches, nil
	}
	byName := make(map[string]*experiments.Bench, len(w.Benches))
	for _, b := range w.Benches {
		byName[b.Name] = b
	}
	out := make([]*experiments.Bench, 0, len(names))
	seen := map[string]bool{}
	for _, n := range names {
		b, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("explore: unknown workload %q", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("explore: duplicate workload %q", n)
		}
		seen[n] = true
		out = append(out, b)
	}
	return out, nil
}

// genRNG derives generation g's RNG. Reseeding per generation (rather than
// streaming one RNG across the run) is what makes resume exact: a rerun
// search re-enters generation g with precisely the randomness the original
// process would have used, with no RNG state to serialize.
func genRNG(seed int64, g int) *rand.Rand {
	const genStride uint64 = 0x9E3779B97F4A7C15 // 2^64/phi, as a mixing stride
	return rand.New(rand.NewSource(seed + int64(uint64(g)*genStride)))
}

type searcher struct {
	w       *experiments.Workloads
	benches []*experiments.Bench
	opt     Options

	pop     []Genome         // current parent population, order significant
	archive map[Genome]*Eval // every genome ever evaluated
	evals   int              // unique genomes simulated (archive size)
}

func (s *searcher) initialPopulation(rng *rand.Rand) []Genome {
	cohort := make([]Genome, 0, s.opt.Pop)
	seen := map[Genome]bool{}
	for len(cohort) < s.opt.Pop {
		g := randomGenome(rng)
		if seen[g] {
			continue
		}
		seen[g] = true
		cohort = append(cohort, g)
	}
	return cohort
}

// offspring breeds one cohort from the current population via binary
// tournament selection, crossover, and mutation, plus a couple of random
// immigrants per generation. All serial, all on the generation RNG.
//
// The immigrants matter more than their count suggests: the four core
// paradigms occupy different cost bands, and a population that converges on
// one paradigm early (cheap in-order/dep-steer machines dominate the
// low-cost end of the front) would otherwise never re-explore the others —
// exactly the failure mode that makes a search miss the braid region.
func (s *searcher) offspring(rng *rand.Rand) []Genome {
	ranked := s.rankedPopulation()
	immigrants := s.opt.Pop / 8
	if immigrants < 2 {
		immigrants = 2
	}
	cohort := make([]Genome, 0, s.opt.Pop)
	for len(cohort) < immigrants {
		cohort = append(cohort, randomGenome(rng))
	}
	for len(cohort) < s.opt.Pop {
		a := s.tournament(ranked, rng)
		b := s.tournament(ranked, rng)
		child := a
		if rng.Float64() < 0.9 {
			child = crossover(a, b, rng)
		}
		mutate(&child, rng)
		// Re-mutate already-evaluated children a few times: duplicates
		// cost a cohort slot without buying an evaluation.
		for tries := 0; tries < 3; tries++ {
			if _, ok := s.archive[child]; !ok {
				break
			}
			mutate(&child, rng)
		}
		cohort = append(cohort, child)
	}
	return cohort
}

// evaluate simulates every not-yet-archived genome in the cohort through one
// IPCAll fan-out, archives the outcomes, and returns how many genomes it
// evaluated. Evaluation order independence: IPCAll's result map is keyed by
// Point, so scheduling does not affect which value lands where.
func (s *searcher) evaluate(cohort []Genome, gen int) (int, error) {
	type job struct {
		g   Genome
		cfg uarch.Config
	}
	var jobs []job
	seen := map[Genome]bool{}
	for _, g := range cohort {
		if _, ok := s.archive[g]; ok || seen[g] {
			continue
		}
		seen[g] = true
		cfg, err := g.Config()
		if err != nil {
			// Unreachable for lattice-derived genomes; archive as
			// infeasible so it is never bred and evaluated again.
			s.archiveEval(Eval{Genome: g, Cost: math.Inf(1), Gen: gen})
			continue
		}
		s.evals++
		jobs = append(jobs, job{g: g, cfg: cfg})
	}

	var points []experiments.Point
	for _, j := range jobs {
		for _, b := range s.benches {
			points = append(points, experiments.Point{Bench: b, Braided: j.g.Braided(), Cfg: j.cfg})
		}
	}
	got, err := s.w.IPCAll(points)
	if err != nil {
		return 0, err
	}

	for _, j := range jobs {
		ev := Eval{Genome: j.g, Cost: uarch.EstimateComplexity(j.cfg).Total(), Gen: gen, Feasible: true}
		logSum := 0.0
		for _, b := range s.benches {
			v, ok := got[experiments.Point{Bench: b, Braided: j.g.Braided(), Cfg: j.cfg}]
			if !ok || v <= 0 {
				// A contained failure on any workload disqualifies the
				// machine: a config that faults or never finishes is not a
				// design point, whatever its other numbers.
				ev.Feasible = false
				break
			}
			logSum += math.Log(v)
		}
		if ev.Feasible {
			ev.IPC = math.Exp(logSum / float64(len(s.benches)))
		}
		s.archiveEval(ev)
	}
	return len(jobs), nil
}

func (s *searcher) archiveEval(ev Eval) {
	e := ev
	s.archive[ev.Genome] = &e
}

// selectNext forms the next parent population from the current parents plus
// the cohort: non-dominated sort, fill by rank, break the last rank by
// crowding distance. Duplicates collapse (the archive is keyed by genome),
// keeping selection pressure on diversity.
func (s *searcher) selectNext(cohort []Genome) {
	union := make([]Genome, 0, len(s.pop)+len(cohort))
	seen := map[Genome]bool{}
	for _, g := range append(append([]Genome{}, s.pop...), cohort...) {
		if seen[g] {
			continue
		}
		seen[g] = true
		union = append(union, g)
	}
	fronts := s.sortNonDominated(union)
	next := make([]Genome, 0, s.opt.Pop)
	for _, fr := range fronts {
		if len(next)+len(fr) <= s.opt.Pop {
			next = append(next, fr...)
			continue
		}
		byCrowding := s.crowdingOrder(fr)
		next = append(next, byCrowding[:s.opt.Pop-len(next)]...)
		break
	}
	s.pop = next
}

// rankedPopulation maps each population genome to its (rank, crowding) for
// tournament selection.
type rankedGenome struct {
	g        Genome
	rank     int
	crowding float64
}

func (s *searcher) rankedPopulation() []rankedGenome {
	fronts := s.sortNonDominated(s.pop)
	var out []rankedGenome
	for rank, fr := range fronts {
		ordered := s.crowdingOrder(fr)
		for i, g := range ordered {
			// Earlier in crowding order = less crowded = preferred.
			out = append(out, rankedGenome{g: g, rank: rank, crowding: -float64(i)})
		}
	}
	return out
}

func (s *searcher) tournament(ranked []rankedGenome, rng *rand.Rand) Genome {
	a := ranked[rng.Intn(len(ranked))]
	b := ranked[rng.Intn(len(ranked))]
	if b.rank < a.rank || (b.rank == a.rank && b.crowding > a.crowding) {
		return b.g
	}
	return a.g
}

// dominates implements feasibility-first Pareto dominance: any feasible
// evaluation dominates any infeasible one; between feasible evaluations, a
// dominates b when it is no worse on both objectives (IPC up, cost down) and
// strictly better on at least one.
func dominates(a, b *Eval) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if !a.Feasible {
		return false
	}
	return a.IPC >= b.IPC && a.Cost <= b.Cost && (a.IPC > b.IPC || a.Cost < b.Cost)
}

// sortNonDominated partitions genomes into fronts: front 0 is non-dominated,
// front k+1 is non-dominated once fronts <= k are removed. Within a front,
// genomes keep canonical order so downstream iteration is deterministic.
func (s *searcher) sortNonDominated(gs []Genome) [][]Genome {
	rest := make([]Genome, len(gs))
	copy(rest, gs)
	sortGenomes(rest, s.archive)
	var fronts [][]Genome
	for len(rest) > 0 {
		var front, rem []Genome
		for _, g := range rest {
			dominated := false
			for _, h := range rest {
				if h != g && dominates(s.archive[h], s.archive[g]) {
					dominated = true
					break
				}
			}
			if dominated {
				rem = append(rem, g)
			} else {
				front = append(front, g)
			}
		}
		if len(front) == 0 { // all mutually dominated cannot happen; guard anyway
			front, rem = rest, nil
		}
		fronts = append(fronts, front)
		rest = rem
	}
	return fronts
}

// crowdingOrder returns the front's genomes most-spread-first: boundary
// points (extreme IPC or cost) first, then descending crowding distance.
// Ties break canonically on the genome, keeping the order deterministic.
func (s *searcher) crowdingOrder(front []Genome) []Genome {
	n := len(front)
	out := make([]Genome, n)
	copy(out, front)
	if n <= 2 {
		sortGenomes(out, s.archive)
		return out
	}
	dist := make(map[Genome]float64, n)
	for _, obj := range []func(*Eval) float64{
		func(e *Eval) float64 { return e.IPC },
		func(e *Eval) float64 { return e.Cost },
	} {
		byObj := make([]Genome, n)
		copy(byObj, out)
		sort.SliceStable(byObj, func(i, j int) bool {
			a, b := s.archive[byObj[i]], s.archive[byObj[j]]
			if obj(a) != obj(b) {
				return obj(a) < obj(b)
			}
			return lessGenome(byObj[i], byObj[j])
		})
		lo, hi := obj(s.archive[byObj[0]]), obj(s.archive[byObj[n-1]])
		span := hi - lo
		dist[byObj[0]] = math.Inf(1)
		dist[byObj[n-1]] = math.Inf(1)
		if span == 0 {
			continue
		}
		for i := 1; i < n-1; i++ {
			d := (obj(s.archive[byObj[i+1]]) - obj(s.archive[byObj[i-1]])) / span
			dist[byObj[i]] += d
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if dist[out[i]] != dist[out[j]] {
			return dist[out[i]] > dist[out[j]]
		}
		return lessGenome(out[i], out[j])
	})
	return out
}

// front computes the global non-dominated set over every feasible archived
// evaluation — not just the final population — in canonical order: ascending
// cost, then descending IPC, then genome.
func (s *searcher) front() []Eval {
	var all []*Eval
	for _, e := range s.archive {
		if e.Feasible {
			all = append(all, e)
		}
	}
	var front []Eval
	for _, e := range all {
		dominated := false
		for _, o := range all {
			if o != e && dominates(o, e) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, *e)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Cost != front[j].Cost {
			return front[i].Cost < front[j].Cost
		}
		if front[i].IPC != front[j].IPC {
			return front[i].IPC > front[j].IPC
		}
		return lessGenome(front[i].Genome, front[j].Genome)
	})
	// Equal-objective duplicates (distinct genomes, same point) would bloat
	// the front without adding information; keep the canonical first.
	dedup := front[:0]
	for i, e := range front {
		if i > 0 && e.IPC == front[i-1].IPC && e.Cost == front[i-1].Cost {
			continue
		}
		dedup = append(dedup, e)
	}
	return dedup
}

// FrontDigest is the sha256 over the canonical JSON of a front. Byte
// identity of this digest across -j 1 / -j N and across interrupt/resume is
// the package's determinism contract, asserted in CI.
func FrontDigest(front []Eval) (string, error) {
	data, err := json.Marshal(front)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// lessGenome is the canonical total order on genomes (field-lexicographic).
func lessGenome(a, b Genome) bool {
	for _, ge := range genes {
		av, bv := *ge.get(&a), *ge.get(&b)
		if av != bv {
			return av < bv
		}
	}
	return false
}

func sortGenomes(gs []Genome, _ map[Genome]*Eval) {
	sort.Slice(gs, func(i, j int) bool { return lessGenome(gs[i], gs[j]) })
}

// bestPoint renders the highest-IPC front point for progress logs.
func bestPoint(front []Eval) string {
	if len(front) == 0 {
		return ""
	}
	best := front[0]
	for _, e := range front[1:] {
		if e.IPC > best.IPC {
			best = e
		}
	}
	return fmt.Sprintf(", best %s ipc %.3f cost %.0f", best.Genome, best.IPC, best.Cost)
}
