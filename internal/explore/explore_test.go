package explore

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"braid/internal/experiments"
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
	res, err := Search(context.Background(), w, benches, searchOpts(1), nil)
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
		w, err := experiments.LoadSuiteCtx(context.Background(), testDyn, 0)
		if err != nil {
			t.Fatal(err)
		}
		w.SetJobs(jobs)
		benches, err := SelectBenches(w, testBenchNames)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Search(context.Background(), w, benches, searchOpts(3), nil)
		if err != nil {
			t.Fatal(err)
		}
		digests[jobs] = res.Digest
	}
	if digests[1] != digests[8] {
		t.Fatalf("front digest differs across -j: j1 %s, j8 %s", digests[1], digests[8])
	}
}

// TestSearchResumeReproducesFront: interrupting a checkpointed search and
// resuming must converge to the identical front. The interruption is
// simulated by truncating the checkpoint to its first two generation
// records — exactly what a SIGKILL after generation 1 leaves behind — plus a
// torn half-line, which resume must drop.
func TestSearchResumeReproducesFront(t *testing.T) {
	w, benches := testSuite(t)
	opt := searchOpts(5)
	dir := t.TempDir()
	meta := Meta{Seed: opt.Seed, Pop: opt.Pop, Budget: opt.Budget,
		Workloads: testBenchNames, DynTarget: testDyn}

	full := filepath.Join(dir, "full.jsonl")
	ck, err := OpenCheckpoint(full, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Search(context.Background(), w, benches, opt, ck)
	ck.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want.Generations < 3 {
		t.Fatalf("search finished in %d generations; test needs >= 3 to interrupt meaningfully", want.Generations)
	}

	// Keep meta + generations 0 and 1, then a torn tail.
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("checkpoint has %d lines", len(lines))
	}
	torn := append([]byte{}, bytes.Join(lines[:3], nil)...)
	torn = append(torn, lines[3][:len(lines[3])/2]...)
	interrupted := filepath.Join(dir, "interrupted.jsonl")
	if err := os.WriteFile(interrupted, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(interrupted, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Generations() != 2 {
		t.Fatalf("restored %d generations, want 2 (torn third dropped)", ck2.Generations())
	}
	got, err := Search(context.Background(), w, benches, opt, ck2)
	ck2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != want.Digest {
		t.Fatalf("resumed front digest %s != uninterrupted %s", got.Digest, want.Digest)
	}
	if got.Generations != want.Generations || got.Evaluations != want.Evaluations {
		t.Errorf("resumed run: %d gens / %d evals, want %d / %d",
			got.Generations, got.Evaluations, want.Generations, want.Evaluations)
	}
}

// TestResumeRefusesParameterMismatch: a checkpoint taken under different
// search parameters must be refused, not silently blended.
func TestResumeRefusesParameterMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.jsonl")
	meta := Meta{Seed: 1, Pop: 8, Budget: 32, Workloads: []string{"gcc"}, DynTarget: testDyn}
	ck, err := OpenCheckpoint(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	changed := meta
	changed.Seed = 2
	if _, err := OpenCheckpoint(path, changed, true); err == nil {
		t.Fatal("resume accepted a checkpoint with a different seed")
	}
	grown := meta
	grown.Workloads = []string{"gcc", "mcf"}
	if _, err := OpenCheckpoint(path, grown, true); err == nil {
		t.Fatal("resume accepted a checkpoint with a different workload set")
	}
}

// TestCheckpointResumeAfterTornTail: resuming past a torn final line must cut
// it off the file, so generations appended afterwards survive the next
// resume instead of being glued onto the torn half.
func TestCheckpointResumeAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	meta := Meta{Seed: 1, Pop: 2, Budget: 8, Workloads: []string{"gcc"}, DynTarget: testDyn}
	pop := []Genome{{}, {Core: 2, Width: 1}}
	appendGens := func(ck *Checkpoint, gens ...int) {
		t.Helper()
		for _, g := range gens {
			if err := ck.appendGen(g, 2*(g+1), pop, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
	}

	ck, err := OpenCheckpoint(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	appendGens(ck, 0, 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"gen","gen":2,"evals":6,"popu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck, err = OpenCheckpoint(path, meta, true)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if ck.Generations() != 2 {
		t.Fatalf("restored %d generations, want 2", ck.Generations())
	}
	appendGens(ck, 2, 3)

	ck, err = OpenCheckpoint(path, meta, true)
	if err != nil {
		t.Fatalf("resume after a torn-tail resume: %v", err)
	}
	defer ck.Close()
	if ck.Generations() != 4 {
		t.Fatalf("restored %d generations, want 4", ck.Generations())
	}
}

// parentFormatCheckpoint is a braidtune -checkpoint file (-workloads gcc
// -dyn 2000 -seed 1 -pop 2 -budget 2) as written before checkpoints moved
// onto internal/journal; files in this format must keep resuming.
const parentFormatCheckpoint = `{"kind":"meta","meta":{"lattice":1,"seed":1,"pop":2,"budget":2,"workloads":["gcc"],"dyn_target":2000}}
{"kind":"gen","evals":2,"population":[{"core":1,"width":3,"retire":1,"beus":3,"iq":1,"window":0,"erf":3,"rports":0,"wports":1,"bypass":0,"predent":2,"predhist":1},{"core":2,"width":1,"retire":0,"beus":2,"iq":3,"window":2,"erf":0,"rports":1,"wports":0,"bypass":0,"predent":0,"predhist":1}],"fresh":[{"genome":{"core":1,"width":3,"retire":1,"beus":3,"iq":1,"window":0,"erf":3,"rports":0,"wports":1,"bypass":0,"predent":2,"predhist":1},"ipc":1.2795248078266945,"cost":33168,"feasible":true,"gen":0},{"genome":{"core":2,"width":1,"retire":0,"beus":2,"iq":3,"window":2,"erf":0,"rports":1,"wports":0,"bypass":0,"predent":0,"predhist":1},"ipc":1.812871287128713,"cost":154442,"feasible":true,"gen":0}]}
`

func TestCheckpointResumesParentFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, []byte(parentFormatCheckpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	meta := Meta{Seed: 1, Pop: 2, Budget: 2, Workloads: []string{"gcc"}, DynTarget: 2000}
	ck, err := OpenCheckpoint(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	s := &searcher{archive: map[Genome]*Eval{}}
	if next := s.restore(ck); next != 1 || s.evals != 2 || len(s.pop) != 2 || len(s.archive) != 2 {
		t.Fatalf("restored next gen %d, %d evals, %d genomes, %d archived; want 1, 2, 2, 2",
			next, s.evals, len(s.pop), len(s.archive))
	}
}

// TestInjectedFaultContainedAndExcluded: arming the fault injector on one
// evaluation must not abort the search — the genome comes back infeasible,
// is excluded from the front, and the containment shows up in Failures().
func TestInjectedFaultContainedAndExcluded(t *testing.T) {
	w, err := experiments.LoadSuiteCtx(context.Background(), testDyn, 0)
	if err != nil {
		t.Fatal(err)
	}
	benches, err := SelectBenches(w, testBenchNames)
	if err != nil {
		t.Fatal(err)
	}
	opt := searchOpts(9)
	opt.InjectFaultAt = 3
	res, err := Search(context.Background(), w, benches, opt, nil)
	if err != nil {
		t.Fatalf("search aborted on an injected fault: %v", err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if len(w.Failures()) == 0 {
		t.Fatal("no contained failure recorded for the injected fault")
	}
	for _, e := range res.Front {
		if !e.Feasible {
			t.Fatalf("infeasible evaluation on the front: %s", e.Genome)
		}
	}

	// The same seed without injection evaluates the same genomes; the
	// faulted one must be the only difference, and the search survives
	// either way.
	opt.InjectFaultAt = 0
	if _, err := Search(context.Background(), w, benches, opt, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSearchCancellation: canceling the context stops the search with an
// error wrapping the cause, leaving any checkpoint intact for resume.
func TestSearchCancellation(t *testing.T) {
	w, benches := testSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, w, benches, searchOpts(1), nil); err == nil {
		t.Fatal("canceled search returned no error")
	}
}
