package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// Traced passes re-execute the test binary, as they do the benchmark's.
	if cfg := os.Getenv(passEnv); cfg != "" {
		os.Exit(passMain(cfg))
	}
	os.Exit(m.Run())
}

// logWriter sends the benchmark's progress lines to the test log.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestSmoke runs the benchmark at a fiftieth of its size against binaries
// built into a temporary directory: suite-exact's timed repeats, then the
// traced run, which times one untraced repeat of every workload before
// tracing it. It checks that the results carry every metric BENCHMARK.json
// names, and that it all takes at most smokeLimit.
func TestSmoke(t *testing.T) {
	start := time.Now()
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := options{
		root: "..", bin: filepath.Join(dir, "bin"), work: filepath.Join(dir, "run"), out: filepath.Join(dir, "out"),
		workload: suiteExact, seed: 3, scale: 0.02,
	}
	ctx := context.Background()

	res, err := execute(ctx, o, logWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	res.finish(spec)
	checkLine(t, res, res.line(spec, false))
	if w := res.Workloads[suiteExact]; w.Repeats != minRepeats {
		t.Errorf("%s: %d repeats, want %d with no time budget", suiteExact, w.Repeats, minRepeats)
	}

	o.trace = true
	tres, err := execute(ctx, o, logWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	tres.finish(spec)
	checkLine(t, tres, tres.line(spec, false))
	checkLine(t, tres, tres.line(spec, true))
	for _, name := range workloadNames {
		w := tres.Workloads[name]
		if w == nil {
			t.Errorf("traced run has no untraced repeat of %s", name)
			continue
		}
		for metric, s := range w.Metrics {
			m, ok := spec.metric(metric)
			if !ok || m.Bound == 0 {
				t.Errorf("%s: metric %s is not an end-to-end metric of BENCHMARK.json", name, metric)
			}
			if !(s.Median > 0) {
				t.Errorf("%s: %s median %v, want > 0", name, metric, s.Median)
			}
		}
		if len(w.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d metrics, BENCHMARK.json names %d", name, len(w.Metrics), len(spec.EndToEnd))
		}
	}
	if len(tres.Layers) != len(spec.PerLayer) {
		t.Errorf("traced run reported %d per-layer metrics, BENCHMARK.json names %d", len(tres.Layers), len(spec.PerLayer))
	}
	if c := tres.Layers["trace.coverage"]; c < 0.95 {
		t.Errorf("named layers cover %.3f of the traced suite-exact wall time, want >= 0.95", c)
	}
	checkTrace(t, filepath.Join(o.out, "trace.json"))
	checkSelfTimes(t, filepath.Join(o.out, "layers.json"))
	if took := time.Since(start); smokeLimit > 0 && took > smokeLimit {
		t.Errorf("smoke test took %v, want at most %v", took.Round(time.Millisecond), smokeLimit)
	}
}

// smokeLimit bounds TestSmoke's run time; 0 means no limit.
var smokeLimit = 20 * time.Second

func checkLine(t *testing.T, res *results, l line) {
	t.Helper()
	if !l.Correct || l.Failed != 0 || l.Attempted == 0 {
		for name, w := range res.Workloads {
			t.Logf("%s problems: %v", name, w.Problems)
		}
		t.Fatalf("result line: correct=%v attempted=%d failed=%d", l.Correct, l.Attempted, l.Failed)
	}
	for name, v := range l.Metrics {
		if v.Unit == "" || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v %q", name, v.Value, v.Unit)
		}
	}
}

// checkTrace requires every span to lie inside its parent.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Name string  `json:"name"`
			Args struct {
				ID     int64 `json:"id"`
				Parent int64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	type key struct {
		pid int
		id  int64
	}
	type ev struct {
		name       string
		start, end float64
	}
	byID := map[key]ev{}
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" {
			byID[key{e.PID, e.Args.ID}] = ev{e.Name, e.TS, e.TS + e.Dur}
		}
	}
	n := 0
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" || e.Args.Parent == 0 {
			continue
		}
		p, ok := byID[key{e.PID, e.Args.Parent}]
		if !ok {
			t.Errorf("span %s has unknown parent %d", e.Name, e.Args.Parent)
			continue
		}
		const eps = 1e-3 // µs of float rounding in ts + dur
		if e.TS < p.start-eps || e.TS+e.Dur > p.end+eps {
			t.Errorf("span %s [%.1f, %.1f] outside parent %s [%.1f, %.1f]", e.Name, e.TS, e.TS+e.Dur, p.name, p.start, p.end)
		}
		n++
	}
	if n == 0 {
		t.Error("trace has no child spans")
	}
}

func checkSelfTimes(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var summary struct {
		Passes map[string]struct {
			Layers map[string]layerStat `json:"layers"`
		} `json:"passes"`
	}
	if err := json.Unmarshal(data, &summary); err != nil {
		t.Fatal(err)
	}
	for pass, p := range summary.Passes {
		for layer, s := range p.Layers {
			if s.SelfS < 0 || s.SelfS > s.TotalS {
				t.Errorf("%s: layer %s self %.6fs outside [0, total %.6fs]", pass, layer, s.SelfS, s.TotalS)
			}
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4), which
// judges the benchmark's spread.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{7.46, 6.378, 7.677, 6.826, 7.656, 7.554, 7.301, 7.511, 7.045, 7.468}, 6.99025, 7.5795},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	mips := metricSpec{Name: "sim_mips", Better: "higher", Bound: 0.25}
	base := []float64{9, 10, 11}
	sum := func(v []float64) summary {
		q1, q3 := quartiles(v)
		return summary{Median: median(v), Q1: q1, Q3: q3, N: len(v)}
	}
	for _, c := range []struct {
		cur  []float64
		want string
	}{
		{[]float64{9.5, 10, 10.5}, "unchanged"},
		{[]float64{6, 7, 8}, "regressed"},
		{[]float64{12.5, 13, 13.5}, "better"},
		{[]float64{13}, "unresolved"},
	} {
		if got := verdict(mips, sum(base), sum(c.cur), base, c.cur); got != c.want {
			t.Errorf("verdict(%v → %v) = %s, want %s", base, c.cur, got, c.want)
		}
	}
	wide := []float64{5, 10, 15}
	if got := verdict(mips, sum(wide), sum(base), wide, base); got != "unresolved" {
		t.Errorf("verdict with base spread above the bound = %s, want unresolved", got)
	}
}

// TestHostScale checks that a host running the reference at half speed
// halves reported times and doubles reported rates, and leaves sizes alone.
func TestHostScale(t *testing.T) {
	slow := 2.0 * hostRefNominalMS
	for _, c := range []struct {
		unit string
		want float64
	}{
		{"s", 0.5}, {"ms", 0.5}, {"1/s", 2}, {"Minstr/s", 2}, {"MB", 1},
	} {
		if got := hostScale(c.unit, slow); got != c.want {
			t.Errorf("hostScale(%q, %v) = %v, want %v", c.unit, slow, got, c.want)
		}
	}
	w := &workloadResult{Values: map[string][]float64{"p50_ms": {4, 6}}, HostRefMS: []float64{hostRefNominalMS, slow}}
	if got := w.scaled(metricSpec{Name: "p50_ms", Unit: "ms"}); got[0] != 4 || got[1] != 3 {
		t.Errorf("scaled p50_ms = %v, want [4 3]", got)
	}
}

// TestRegenerateReferences rewrites bench/testdata from the braidbench
// binary for every size a seed can pick. Run it with BENCH_REGENERATE=1
// after a change meant to alter simulated results; it takes about 75 s.
func TestRegenerateReferences(t *testing.T) {
	if os.Getenv("BENCH_REGENERATE") == "" {
		t.Skip("set BENCH_REGENERATE=1 to rewrite bench/testdata")
	}
	ctx := context.Background()
	dir := t.TempDir()
	e := &runEnv{o: options{root: "..", bin: filepath.Join(dir, "bin"), work: dir}}
	if err := buildBinaries(ctx, "..", e.o.bin); err != nil {
		t.Fatal(err)
	}
	suite, fleet := map[string]suiteRef{}, map[string]suiteRef{}
	for _, lvl := range sizeLevels {
		dyn := dynAt(suiteDyn, lvl)
		exact := func(args ...string) ([]byte, suiteRef) {
			o, err := e.braidbench(ctx, append([]string{"-j", fmt.Sprint(jobs), "-throughput", "-dyn", fmt.Sprint(dyn)}, args...)...)
			if err != nil {
				t.Fatal(err)
			}
			tables, tp, err := splitThroughput(o.stdout)
			if err != nil {
				t.Fatal(err)
			}
			return tables, suiteRef{hexSum(tables), tp.Simulations, tp.Instructions, tp.Cycles}
		}
		all, allRef := exact()
		fig13, fig13Ref := exact("-exp", "fig13")
		if !bytes.Contains(all, fig13) {
			t.Fatalf("-dyn %d: fig13 alone prints other bytes than fig13 in the whole suite", dyn)
		}
		suite[fmt.Sprint(dyn)], fleet[fmt.Sprint(dyn)] = allRef, fig13Ref

		dyn = dynAt(sampledDyn, lvl)
		o, err := e.braidbench(ctx, "-j", fmt.Sprint(jobs), "-exp", "fig13", "-csv", "-dyn", fmt.Sprint(dyn))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", fig13File(dyn)), o.stdout, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeJSON(filepath.Join("testdata", "suite.json"), suite); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(filepath.Join("testdata", "fleet.json"), fleet); err != nil {
		t.Fatal(err)
	}
}
