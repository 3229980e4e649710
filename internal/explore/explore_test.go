package explore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"braid/internal/experiments"
	"braid/internal/isa"
	"braid/internal/uarch"
)

// The test suite: a small mixed workload set at a small calibration target,
// loaded once and shared (the memo cache makes repeat searches nearly free).
const testDyn = 8000

var testBenchNames = []string{"gcc", "mcf", "gzip", "swim"}

var (
	suiteOnce sync.Once
	suiteW    *experiments.Workloads
	suiteErr  error
)

func testSuite(t *testing.T) (*experiments.Workloads, []*experiments.Bench) {
	t.Helper()
	suiteOnce.Do(func() {
		suiteW, suiteErr = experiments.LoadSuiteCtx(context.Background(), testDyn, 0)
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	benches, err := SelectBenches(suiteW, testBenchNames)
	if err != nil {
		t.Fatal(err)
	}
	return suiteW, benches
}

func searchOpts(seed int64) Options {
	return Options{Seed: seed, Pop: 16, Budget: 200}
}

// TestSearchRediscoversThePaper is the acceptance test: from a random seed
// population, the front must contain a braid-style machine within 10% of the
// 8-wide out-of-order baseline's geomean IPC at no more than half (in fact
// a few percent) of its estimated complexity. That is the paper's Figure 13
// / §5.1 claim, recovered by search rather than by hand.
func TestSearchRediscoversThePaper(t *testing.T) {
	w, benches := testSuite(t)
	res, err := Search(context.Background(), w, benches, searchOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}

	// The reference machine, evaluated through the same pipeline.
	oooCfg := uarch.OutOfOrderConfig(8)
	logSum := 0.0
	for _, b := range benches {
		v, err := w.IPC(b, false, oooCfg)
		if err != nil {
			t.Fatal(err)
		}
		logSum += math.Log(v)
	}
	oooIPC := math.Exp(logSum / float64(len(benches)))
	oooCost := uarch.EstimateComplexity(oooCfg).Total()

	found := false
	for _, e := range res.Front {
		cfg, err := e.Genome.Config()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Core != uarch.CoreBraid {
			continue
		}
		if e.IPC >= 0.9*oooIPC && e.Cost <= 0.5*oooCost {
			found = true
			t.Logf("rediscovered: %s ipc %.3f (ooo/8 %.3f) cost %.0f (%.1f%% of ooo/8)",
				e.Genome, e.IPC, oooIPC, e.Cost, 100*e.Cost/oooCost)
		}
	}
	if !found {
		for _, e := range res.Front {
			t.Logf("front: %s feasible=%v ipc %.3f cost %.0f (gen %d)", e.Genome, e.Feasible, e.IPC, e.Cost, e.Gen)
		}
		t.Fatalf("no braid config within 10%% of ooo/8 IPC %.3f at <=50%% of cost %.0f", oooIPC, oooCost)
	}
}

// TestSearchDigestIndependentOfParallelism: the front digest must be
// byte-identical at any worker-pool width. Fresh Workloads per width so the
// memo cache cannot mask a scheduling dependence.
func TestSearchDigestIndependentOfParallelism(t *testing.T) {
	_, benches0 := testSuite(t) // ensure the shared suite exists for names
	_ = benches0
	digests := map[int]string{}
	for _, jobs := range []int{1, 8} {
		w, err := experiments.LoadSuiteCtx(context.Background(), testDyn, jobs)
		if err != nil {
			t.Fatal(err)
		}
		benches, err := SelectBenches(w, testBenchNames)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Search(context.Background(), w, benches, searchOpts(3))
		if err != nil {
			t.Fatal(err)
		}
		digests[jobs] = res.Digest
	}
	if digests[1] != digests[8] {
		t.Fatalf("front digest differs across -j: j1 %s, j8 %s", digests[1], digests[8])
	}
}

// freshSuite loads a suite with an empty memo cache, so a search over it
// simulates every point its checkpoint did not restore. Its programs are a
// quarter of testDyn long, which keeps the resume tests' seven suite loads
// quick under the race detector.
func freshSuite(t *testing.T) (*experiments.Workloads, []*experiments.Bench) {
	t.Helper()
	w, err := experiments.LoadSuiteCtx(context.Background(), testDyn/4, 0)
	if err != nil {
		t.Fatal(err)
	}
	benches, err := SelectBenches(w, testBenchNames)
	if err != nil {
		t.Fatal(err)
	}
	return w, benches
}

// journaledSearch runs a search over a fresh suite that checkpoints to path,
// resuming the journal there if resume is set. It returns the result, the
// points the journal restored, and the simulations the search ran.
func journaledSearch(t *testing.T, path string, resume bool, opt Options) (*Result, int, uint64) {
	t.Helper()
	w, benches := freshSuite(t)
	restored, err := w.OpenCheckpoint(path, resume)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(context.Background(), w, benches, opt)
	if cerr := w.CloseCheckpoint(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, restored, w.SimRuns()
}

// TestSearchResumeReproducesFront: an interrupted search resumes from the
// suite's point journal to the identical front, simulating only the points
// the journal lacks. The interruption is simulated by cutting the journal
// after its first 100 points plus a torn half-line — what a SIGKILL
// mid-append leaves behind — which resume must drop.
func TestSearchResumeReproducesFront(t *testing.T) {
	opt := Options{Seed: 5, Pop: 16, Budget: 96} // up to 64 points a generation
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	want, _, all := journaledSearch(t, full, false, opt)

	const kept = 100
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) <= kept+1 {
		t.Fatalf("journal holds %d points; the test needs more than %d", len(lines)-1, kept+1)
	}
	torn := append([]byte{}, bytes.Join(lines[:kept], nil)...)
	torn = append(torn, lines[kept][:len(lines[kept])/2]...)
	interrupted := filepath.Join(dir, "interrupted.jsonl")
	if err := os.WriteFile(interrupted, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	got, restored, runs := journaledSearch(t, interrupted, true, opt)
	if restored != kept {
		t.Fatalf("restored %d points, want %d (torn line dropped)", restored, kept)
	}
	if got.Digest != want.Digest {
		t.Fatalf("resumed front digest %s != uninterrupted %s", got.Digest, want.Digest)
	}
	if got.Generations != want.Generations || got.Evaluations != want.Evaluations {
		t.Errorf("resumed run: %d gens / %d evals, want %d / %d",
			got.Generations, got.Evaluations, want.Generations, want.Evaluations)
	}
	if runs != all-kept {
		t.Errorf("resumed run simulated %d points, want %d (all %d less the %d restored)", runs, all-kept, all, kept)
	}
}

// TestResumeAcrossParametersMatchesFreshRun: a journal no longer pins the
// search parameters. Every point it holds is valid for any search over the
// same programs, so a seed-5 journal resumed into a search with other
// parameters yields that search's fresh front, and only the points the two
// searches share go unsimulated: none for seed 6, whose searches share no
// machine with seed 5's, and all of seed 5's for a larger budget, which
// retraces the smaller search before it goes on.
func TestResumeAcrossParametersMatchesFreshRun(t *testing.T) {
	dir := t.TempDir()
	seed5 := filepath.Join(dir, "seed5.jsonl")
	journaledSearch(t, seed5, false, Options{Seed: 5, Pop: 16, Budget: 48})
	journal, err := os.ReadFile(seed5)
	if err != nil {
		t.Fatal(err)
	}
	journaled := uint64(bytes.Count(journal, []byte("\n")))
	for _, tc := range []struct {
		opt    Options
		reused uint64
	}{
		{Options{Seed: 6, Pop: 16, Budget: 48}, 0},
		{Options{Seed: 5, Pop: 16, Budget: 80}, journaled},
	} {
		w, benches := freshSuite(t)
		want, err := Search(context.Background(), w, benches, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("seed%d-budget%d.jsonl", tc.opt.Seed, tc.opt.Budget))
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		got, restored, runs := journaledSearch(t, path, true, tc.opt)
		if uint64(restored) != journaled {
			t.Errorf("%+v: restored %d of the journal's %d points", tc.opt, restored, journaled)
		}
		if got.Digest != want.Digest || got.Generations != want.Generations || got.Evaluations != want.Evaluations {
			t.Errorf("%+v over a seed-5 journal: digest %.12s, %d gens, %d evals; fresh: %.12s, %d, %d",
				tc.opt, got.Digest, got.Generations, got.Evaluations, want.Digest, want.Generations, want.Evaluations)
		}
		if runs != w.SimRuns()-tc.reused {
			t.Errorf("%+v: resumed run simulated %d points, fresh run %d; want %d reused from the journal",
				tc.opt, runs, w.SimRuns(), tc.reused)
		}
	}
}

// faultRunner simulates in-process, except that every point on cfg runs
// under a retire observer that panics at its 50th retirement:
// uarch.SimulateObserved contains the panic as a *uarch.SimFault, as it
// does a corruption the paranoid checker catches.
type faultRunner struct{ cfg uarch.Config }

func (r faultRunner) SimulateSampled(ctx context.Context, p *isa.Program, cfg uarch.Config, sp uarch.Sampling) (*uarch.Stats, *uarch.SampleEstimate, error) {
	if cfg != r.cfg {
		return uarch.SimulateSampled(ctx, p, cfg, sp)
	}
	retired := 0
	st, err := uarch.SimulateObserved(ctx, p, cfg, func(uarch.RetireEvent) {
		if retired++; retired == 50 {
			panic("observer fault")
		}
	})
	return st, nil, err
}

// TestInjectedFaultContainedAndExcluded: a machine on the front whose
// simulations fault must not abort the search. The rerun with the same seed
// evaluates it as before, records the contained failures, keeps it off the
// front and archives it as infeasible.
func TestInjectedFaultContainedAndExcluded(t *testing.T) {
	shared, benches := testSuite(t)
	opt := searchOpts(9)
	clean, err := Search(context.Background(), shared, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	target := clean.Front[len(clean.Front)/2].Genome
	cfg, err := target.Config()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh suite: the shared one has the target's points memoized.
	w, err := experiments.LoadSuiteCtx(context.Background(), testDyn, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.SetRunner(faultRunner{cfg})
	if benches, err = SelectBenches(w, testBenchNames); err != nil {
		t.Fatal(err)
	}
	res, err := Search(context.Background(), w, benches, opt)
	if err != nil {
		t.Fatalf("search aborted on a contained fault: %v", err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, e := range res.Front {
		if e.Genome == target {
			t.Errorf("the faulted machine %s is on the front", target)
		}
		if !e.Feasible {
			t.Errorf("infeasible evaluation on the front: %s", e.Genome)
		}
	}
	fails := w.Failures()
	if len(fails) == 0 {
		t.Fatalf("no contained failure recorded for %s", target)
	}
	t.Logf("faulted %s: %d contained failures; front %d points, %d before", target, len(fails), len(res.Front), len(clean.Front))
	for _, f := range fails {
		var sf *uarch.SimFault
		if f.Core != cfg.Core || !errors.As(f.Err, &sf) {
			t.Errorf("recorded failure %s, want a *uarch.SimFault of %s", f, target)
		}
	}
	s := &searcher{w: w, benches: benches, opt: opt.withDefaults(), archive: map[Genome]*Eval{}}
	if _, err := s.evaluate([]Genome{target}, 0); err != nil {
		t.Fatal(err)
	}
	if ev := s.archive[target]; ev.Feasible || ev.IPC != 0 {
		t.Errorf("the faulted machine scored feasible=%v, IPC %v; want infeasible", ev.Feasible, ev.IPC)
	}
}

// TestSearchCancellation: canceling the context stops the search with an
// error wrapping the cause.
func TestSearchCancellation(t *testing.T) {
	w, benches := testSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, w, benches, searchOpts(1)); err == nil {
		t.Fatal("canceled search returned no error")
	}
}
