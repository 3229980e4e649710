package uarch

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"braid/internal/braid"
	"braid/internal/isa"
	"braid/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden stats files")

// goldenPoint is one pinned simulation: a program, a configuration, and a
// label stable across refactors.
type goldenPoint struct {
	label   string
	braided bool
	cfg     Config
}

// goldenPoints covers every core paradigm plus the timing-sensitive engine
// modes (exceptions, clustering, external wakeup delay) in paranoid mode, so
// any hot-loop refactor that perturbs a single stat counter — or a single
// cache access — fails loudly.
func goldenPoints() []goldenPoint {
	excOOO := OutOfOrderConfig(8)
	excOOO.ExceptionEvery, excOOO.ExceptionHandler = 500, 32
	excBraid := BraidConfig(8)
	excBraid.ExceptionEvery, excBraid.ExceptionHandler = 500, 32
	clustered := BraidConfig(8)
	clustered.Clusters, clustered.InterClusterDelay = 2, 2
	wakeup := BraidConfig(8)
	wakeup.ExtWakeupExtra = 1
	queued := BraidConfig(8)
	queued.BEUQueueBraids = true
	narrow := BraidConfig(4)
	narrow.RFEntries = 6 // stress RF-entry stalls and early release
	pts := []goldenPoint{
		{"inorder-8", false, InOrderConfig(8)},
		{"depsteer-8", false, DepSteerConfig(8)},
		{"ooo-8", false, OutOfOrderConfig(8)},
		{"braid-8", true, BraidConfig(8)},
		{"ooo-8-exc", false, excOOO},
		{"braid-8-exc", true, excBraid},
		{"braid-8-clustered", true, clustered},
		{"braid-8-wakeup1", true, wakeup},
		{"braid-8-queued", true, queued},
		{"braid-4-rf6", true, narrow},
	}
	for i := range pts {
		pts[i].cfg.Paranoid = true
	}
	return pts
}

// goldenPrograms returns the fixed workloads the goldens run: an integer
// pointer-chasing benchmark (cache misses, long idle stretches) and a
// branchy integer benchmark (mispredict redirects), both original and
// braided.
func goldenPrograms(t *testing.T) map[string][2]*isa.Program {
	t.Helper()
	progs := map[string][2]*isa.Program{}
	for _, name := range []string{"mcf", "gcc"} {
		prof, ok := workload.ProfileByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		p, err := workload.Generate(prof, 120)
		if err != nil {
			t.Fatal(err)
		}
		res, err := braid.Compile(p, braid.Options{})
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = [2]*isa.Program{p, res.Prog}
	}
	return progs
}

// goldenLine renders every Stats field (exported and internal accumulators)
// plus the memory-hierarchy counters, so the pinned text is the complete
// observable timing state of a run.
func goldenLine(st *Stats, m *Machine) string {
	l1iH, l1iM, l1dH, l1dM, l2H, l2M := m.hier.Stats()
	return fmt.Sprintf("%+v mem{L1I %d/%d L1D %d/%d L2 %d/%d}",
		*st, l1iH, l1iM, l1dH, l1dM, l2H, l2M)
}

func TestGoldenStats(t *testing.T) {
	progs := goldenPrograms(t)
	var sb strings.Builder
	for _, name := range []string{"mcf", "gcc"} {
		pair := progs[name]
		for _, pt := range goldenPoints() {
			p := pair[0]
			if pt.braided {
				p = pair[1]
			}
			m := freshMachine(t, p, pt.cfg)
			if _, err := m.run(context.Background(), math.MaxUint64); err != nil {
				t.Fatalf("%s/%s: %v", name, pt.label, err)
			}
			fmt.Fprintf(&sb, "%s/%s: %s\n", name, pt.label, goldenLine(&m.stats, m))
		}
	}
	checkGolden(t, "golden_stats.txt", sb.String())
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Errorf("golden mismatch at line %d:\n got  %s\n want %s", i+1,
					gotLines[i], wantLines[min(i, len(wantLines)-1)])
				break
			}
		}
		t.Fatalf("%s diverged; a timing-semantics change must be deliberate (regenerate with -update)", name)
	}
}

// TestGoldenSampledStats pins sampled runs the way TestGoldenStats pins exact
// ones: the complete Stats and estimate of every core paradigm, plus a
// non-default predictor geometry and a perfect predictor, at a geometry that
// alternates fast-forward and detailed intervals many times. It guards what
// only sampled runs exercise — the functional warmer's cache traffic, the
// hand-over between warmer and detailed machine, and the architectural
// counts taken from the trace — against any change that moves a number.
func TestGoldenSampledStats(t *testing.T) {
	progs := goldenPrograms(t)
	small := OutOfOrderConfig(8)
	small.PredEntries, small.PredHistory = 128, 16
	perfect := BraidConfig(8)
	perfect.PerfectBP = true
	pts := []goldenPoint{
		{"inorder-8", false, InOrderConfig(8)},
		{"depsteer-8", false, DepSteerConfig(8)},
		{"ooo-8", false, OutOfOrderConfig(8)},
		{"braid-8", true, BraidConfig(8)},
		{"ooo-8-pred128x16", false, small},
		{"braid-8-perfectbp", true, perfect},
	}
	sp := Sampling{Period: 1500, Detail: 300, Warmup: 200}
	var sb strings.Builder
	for _, name := range []string{"mcf", "gcc"} {
		for _, pt := range pts {
			p := progs[name][0]
			if pt.braided {
				p = progs[name][1]
			}
			st, est, err := SimulateSampled(context.Background(), p, pt.cfg, sp)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, pt.label, err)
			}
			fmt.Fprintf(&sb, "%s/%s: %+v %+v\n", name, pt.label, *st, *est)
		}
	}
	checkGolden(t, "golden_sampled_stats.txt", sb.String())
}
