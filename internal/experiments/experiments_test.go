package experiments

import (
	"strings"
	"sync"
	"testing"
)

// The suite is expensive to prepare; share one across tests.
var (
	tOnce  sync.Once
	tSuite *Workloads
	tErr   error
)

func testSuite(t *testing.T) *Workloads {
	t.Helper()
	tOnce.Do(func() {
		tSuite, tErr = LoadSuite(4000)
	})
	if tErr != nil {
		t.Fatal(tErr)
	}
	return tSuite
}

func TestLoadSuite(t *testing.T) {
	w := testSuite(t)
	if len(w.Benches) != 26 {
		t.Fatalf("suite has %d benchmarks, want 26", len(w.Benches))
	}
	for _, b := range w.Benches {
		if b.Orig == nil || b.Braided == nil || b.Compile == nil {
			t.Fatalf("%s: incomplete bench", b.Name)
		}
		c, err := b.Characterize()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if c.Braids.Instrs < 1000 {
			t.Errorf("%s: only %d dynamic instructions", b.Name, c.Braids.Instrs)
		}
		if c.Braids.Braids == 0 {
			t.Errorf("%s: no dynamic braid statistics", b.Name)
		}
		if c.Values.TotalValues == 0 {
			t.Errorf("%s: no value statistics", b.Name)
		}
	}
}

func TestLoadSuiteRejectsTinyTarget(t *testing.T) {
	if _, err := LoadSuite(10); err == nil {
		t.Error("tiny dynTarget accepted")
	}
}

func TestResultAccessors(t *testing.T) {
	r := newResult("x", "test")
	r.Set("a", false, "s1", 1.0)
	r.Set("a", false, "s2", 3.0)
	r.Set("b", true, "s1", 2.0)
	if v, ok := r.Get("a", "s1"); !ok || v != 1.0 {
		t.Errorf("Get = %v %v", v, ok)
	}
	if _, ok := r.Get("c", "s1"); ok {
		t.Error("Get of absent benchmark succeeded")
	}
	if got := r.Average("s1", "int"); got != 1.0 {
		t.Errorf("int avg = %v", got)
	}
	if got := r.Average("s1", "fp"); got != 2.0 {
		t.Errorf("fp avg = %v", got)
	}
	if got := r.Average("s1", "all"); got != 1.5 {
		t.Errorf("all avg = %v", got)
	}
	if got := r.Average("s2", "fp"); got != 0 {
		t.Errorf("missing-series fp avg = %v, want 0", got)
	}
	r.AddClaim("demo", 1.0, 1.5)
	s := r.String()
	for _, want := range []string{"s1", "s2", "avg-int", "avg-fp", "avg-all", "demo", "1.500"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	md := r.Markdown()
	for _, want := range []string{"| benchmark |", "| a |", "| claim | paper | measured |"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown() missing %q", want)
		}
	}
}

func TestResultSortSeries(t *testing.T) {
	r := newResult("x", "t")
	r.Set("a", false, "z", 1)
	r.Set("a", false, "y", 2)
	r.Set("a", false, "x", 3)
	r.sortSeries([]string{"x", "y", "z"})
	if r.Series[0] != "x" || r.Series[1] != "y" || r.Series[2] != "z" {
		t.Errorf("series order = %v", r.Series)
	}
}

func TestRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	if len(ids) != 16 {
		t.Errorf("registry has %d experiments, want 16", len(ids))
	}
	if _, ok := ByID("fig13"); !ok {
		t.Error("ByID(fig13) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

func TestValueCharacterizationShape(t *testing.T) {
	w := testSuite(t)
	r, err := ValueCharacterization(w)
	if err != nil {
		t.Fatal(err)
	}
	once := r.Average("used-once", "all")
	if once < 0.5 || once > 1.0 {
		t.Errorf("used-once avg %.3f implausible", once)
	}
	le2 := r.Average("used<=2", "all")
	if le2 < once {
		t.Errorf("used<=2 (%.3f) below used-once (%.3f)", le2, once)
	}
	if life := r.Average("life<=32", "all"); life < 0.6 {
		t.Errorf("lifetime<=32 avg %.3f too low", life)
	}
}

func TestTablesMatchProfiles(t *testing.T) {
	w := testSuite(t)
	for _, run := range []struct {
		name string
		f    func(*Workloads) (*Result, error)
		ms   string // measured series
		ps   string // paper series
		tol  float64
	}{
		{"table1", Table1, "measured", "paper", 0.45},
		{"table2", Table2, "size", "size-paper", 0.45},
		{"table3", Table3, "ext-in", "in-paper", 0.6},
	} {
		r, err := run.f(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range w.Benches {
			m, _ := r.Get(b.Name, run.ms)
			p, _ := r.Get(b.Name, run.ps)
			d := m - p
			if d < 0 {
				d = -d
			}
			if d > run.tol*p+0.5 {
				t.Errorf("%s %s: measured %.2f vs paper %.2f", run.name, b.Name, m, p)
			}
		}
	}
}

func TestFig6Monotone(t *testing.T) {
	w := testSuite(t)
	r, err := Fig6(w)
	if err != nil {
		t.Fatal(err)
	}
	// Shrinking the external RF can only hurt (on average).
	prev := 1.1
	for _, s := range []string{"64", "32", "16", "8", "4"} {
		v := r.Average(s, "all")
		if v > prev+0.02 {
			t.Errorf("external RF %s entries: %.3f exceeds larger size %.3f", s, v, prev)
		}
		prev = v
	}
	// And 8 entries must be close to the 256-entry baseline (the claim).
	// The bound is loose here because this suite is tiny (4k dynamic
	// instructions) and cold data misses inflate register-file pressure;
	// cmd/braidbench at realistic sizes measures ~0.99.
	if v := r.Average("8", "all"); v < 0.85 {
		t.Errorf("8-entry external RF at %.3f of 256-entry; paper says ~equal", v)
	}
}

func TestFig13Ordering(t *testing.T) {
	w := testSuite(t)
	r, err := Fig13(w)
	if err != nil {
		t.Fatal(err)
	}
	io := r.Average("i-o/8w", "all")
	dep := r.Average("dep/8w", "all")
	br := r.Average("braid/8w", "all")
	oo := r.Average("o-o-o/8w", "all")
	t.Logf("8-wide: inorder %.3f, dep %.3f, braid %.3f, ooo %.3f", io, dep, br, oo)
	if !(io < dep && dep <= br*1.05 && br < oo*1.1) {
		t.Errorf("paradigm ordering broken: io=%.3f dep=%.3f braid=%.3f ooo=%.3f", io, dep, br, oo)
	}
	if br/oo < 0.75 {
		t.Errorf("braid at %.3f of OoO; paper says within ~9%%", br/oo)
	}
}

func TestIPCMemoization(t *testing.T) {
	w := testSuite(t)
	b := w.Benches[0]
	cfg := ooo8()
	v1, err := w.IPC(b, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := w.IPC(b, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("memoized IPC changed: %v vs %v", v1, v2)
	}
}

// TestAllExperimentsRun executes every paper artifact and every ablation on
// the shared tiny suite: no errors, plausible output grids, claims filled.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	w := testSuite(t)
	all := append(All(), Ablations()...)
	for _, e := range all {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Benchmarks) != 26 {
				t.Errorf("%d benchmark rows, want 26", len(res.Benchmarks))
			}
			if len(res.Series) == 0 {
				t.Error("no series")
			}
			for _, s := range res.Series {
				v := res.Average(s, "all")
				if v < 0 || v != v { // negative or NaN
					t.Errorf("series %s average %v implausible", s, v)
				}
			}
			for _, c := range res.Claims {
				if c.Measured != c.Measured {
					t.Errorf("claim %q measured NaN", c.Desc)
				}
			}
			// Rendering paths must not panic and must mention the id.
			if !strings.Contains(res.String(), res.ID) {
				t.Error("String() missing experiment id")
			}
			_ = res.Markdown()
			_ = res.CSV()
		})
	}
}
