// Command bench is the repository's benchmark. It times the binaries users
// run — braidbench, braidd and braidd's HTTP API — on four workloads, every
// repeat in a fresh child process, and checks their outputs against exact
// references. With -trace 1 it instead drives the same inputs in-process,
// with a span around every call into a module's public functions, and
// reports per-layer numbers plus a Chrome trace.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	sh bench/run.sh                               # every workload, round-robin
//	sh bench/run.sh -workload braidd-mixed -seed 7
//	sh bench/run.sh -trace 1                      # per-layer metrics and trace.json
//	sh bench/run.sh -compare base/results.json new/results.json
//
// Tools that read BENCHMARK.json call its command as
// "<command> --workload NAME --seed N --seconds run_seconds --trace 0|1"
// from the root of a fresh checkout; -workload and -seconds exist for them.
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics, named and with units as in
// BENCHMARK.json, each the median of the run's repeats with its times
// scaled to a reference host speed (see hostScale); -out receives every
// repeat's numbers as measured, their medians, quartiles and the
// environment they were measured in.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark builds and writes.
const buildDir = ".bench_build"

// Every workload repeats at least minRepeats times, then as often as its
// -seconds budget allows.
const (
	minRepeats = 3
	maxRepeats = 50
)

type options struct {
	root, bin, work, out string
	workload             string // a workload name, or "all"
	seed                 int64
	seconds              float64
	trace                bool
	scale                float64 // 1 outside tests
}

func main() {
	if cfg := os.Getenv(passEnv); cfg != "" {
		os.Exit(passMain(cfg))
	}
	os.Exit(cliMain(os.Args[1:]))
}

func cliMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o := options{root: ".", bin: filepath.Join(buildDir, "bin"), work: filepath.Join(buildDir, "run"), scale: 1}
	fs.StringVar(&o.workload, "workload", "all", "workload to measure ("+strings.Join(workloadNames, ", ")+") or all, round-robin")
	fs.Int64Var(&o.seed, "seed", 0, "input seed; 0 is the pinned canonical run")
	fs.Float64Var(&o.seconds, "seconds", 0, "measuring budget per workload (default: run_seconds in BENCHMARK.json); each runs at least 3 repeats")
	trace := fs.Int("trace", 0, "1: run every workload's traced in-process pass and report per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(buildDir, "out"), "directory for results.json, and trace.json and layers.json with -trace 1")
	compare := fs.String("compare", "", "compare results file `base.json` with the one given as argument, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "bench: -compare base.json new.json")
			return 2
		}
		return compareMain(o.root, *compare, fs.Arg(0), os.Stdout)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || (o.workload != "all" && !contains(workloadNames, o.workload)) {
		fs.Usage()
		return 2
	}
	o.trace = *trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	spec, err := loadSpec(o.root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if o.seconds == 0 {
		o.seconds = spec.RunSeconds
	}
	res, err := execute(ctx, o, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	res.finish(spec)
	if err := writeJSON(filepath.Join(o.out, "results.json"), res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	res.report(os.Stderr)
	l := res.line(spec, o.trace)
	data, err := json.Marshal(l)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	if !l.Correct {
		return 1
	}
	return 0
}

// execute builds the binaries and runs the untraced repeats or, with
// o.trace, one untraced repeat and one traced pass of every workload.
func execute(ctx context.Context, o options, log io.Writer) (*results, error) {
	var err error
	if o.bin, err = filepath.Abs(o.bin); err != nil {
		return nil, err
	}
	for _, dir := range []string{o.work, o.out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	if err := buildBinaries(ctx, o.root, o.bin); err != nil {
		return nil, err
	}
	refs, err := loadReferences(o.root)
	if err != nil {
		return nil, err
	}
	e := &runEnv{o: o, p: params{seed: o.seed, scale: o.scale}, refs: refs, first: map[string][32]byte{}}
	names := workloadNames
	if o.workload != "all" && !o.trace {
		names = []string{o.workload}
	}
	if contains(names, braiddMixed) {
		if e.stream, err = mixedStream(e.p); err != nil {
			return nil, err
		}
		if e.expected, err = expectedStats(ctx, nil, e.stream); err != nil {
			return nil, err
		}
	}
	res := &results{Env: newEnvRecord(o), Workloads: map[string]*workloadResult{}}
	if o.trace {
		err = e.traceRun(ctx, res, log)
	} else {
		e.measure(ctx, res, names, log)
	}
	if err == nil {
		err = ctx.Err()
	}
	return res, err
}

func buildBinaries(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin+string(filepath.Separator),
		"./cmd/braidbench", "./cmd/braidd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building braidbench and braidd: %w\n%s", err, out)
	}
	return nil
}

// measure runs the workloads round-robin, so a slow spell on a shared host
// spreads across all of them, until the next round would overrun the
// budget. The host reference is timed between repeats; each repeat gets
// the mean of the timings just before and just after it.
func (e *runEnv) measure(ctx context.Context, res *results, names []string, log io.Writer) {
	budget := time.Duration(e.o.seconds * float64(len(names)) * float64(time.Second))
	start := time.Now()
	var round time.Duration
	ref := hostRefMS()
	for n := 0; n < maxRepeats && ctx.Err() == nil; n++ {
		if n >= minRepeats && time.Since(start)+round > budget {
			break
		}
		r0 := time.Now()
		for _, name := range names {
			rep := e.repeat(ctx, name)
			after := hostRefMS()
			res.add(name, rep, (ref+after)/2)
			ref = after
			fmt.Fprintf(log, "bench: %s repeat %d: %.2fs%s\n", name, n+1, rep.wall.Seconds(), problemNote(rep.problems))
		}
		round = time.Since(r0)
	}
}

// traceRun runs each workload once untraced and once traced, reporting the
// per-layer metrics, the traced/untraced wall-time ratio, the Chrome trace
// and the layer summary. It always covers every workload: no single one
// reaches every layer.
func (e *runEnv) traceRun(ctx context.Context, res *results, log io.Writer) error {
	root, err := filepath.Abs(e.o.root)
	if err != nil {
		return err
	}
	res.Layers = map[string]float64{}
	summary := map[string]any{}
	var passes []*passResult
	for _, name := range workloadNames {
		before := hostRefMS()
		rep := e.repeat(ctx, name)
		res.add(name, rep, (before+hostRefMS())/2)
		traced, err := runPassChild(ctx, passConfig{Workload: name, Seed: e.p.seed, Scale: e.p.scale, Root: root})
		if err != nil {
			return err
		}
		passes = append(passes, traced)
		w := res.Workloads[name]
		w.Attempted += traced.Attempted
		w.Failed += traced.Failed
		w.Problems = append(w.Problems, traced.Problems...)
		for k, v := range traced.Metrics {
			res.Layers[k] = v
		}
		res.Layers["trace.overhead."+name] = traced.WallS / rep.wall.Seconds()
		summary[name] = map[string]any{"wall_s": traced.WallS, "untraced_wall_s": rep.wall.Seconds(), "layers": summarize(traced.Spans)}
		fmt.Fprintf(log, "bench: %s untraced %.2fs, traced %.2fs%s\n", name, rep.wall.Seconds(), traced.WallS,
			problemNote(append(rep.problems, traced.Problems...)))
	}
	if err := writeChromeTrace(filepath.Join(e.o.out, "trace.json"), passes); err != nil {
		return err
	}
	return writeJSON(filepath.Join(e.o.out, "layers.json"), map[string]any{"passes": summary, "metrics": res.Layers})
}

func problemNote(problems []string) string {
	if len(problems) == 0 {
		return ""
	}
	return " FAILED: " + strings.Join(problems, "; ")
}

// envRecord is the environment every result is measured in.
type envRecord struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	SizeFactor float64 `json:"size_factor"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Started    string  `json:"started"`
}

func newEnvRecord(o options) envRecord {
	commit := "unknown" // a checkout without git history
	if out, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envRecord{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Commit:     commit,
		Seed:       o.seed,
		SizeFactor: sizeFactor(o.seed) * o.scale,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// results is the -out file.
type results struct {
	Env       envRecord                  `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Layers    map[string]float64         `json:"layers,omitempty"` // -trace 1
}

type workloadResult struct {
	Repeats   int       `json:"repeats"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
	WallS     []float64 `json:"wall_s"`
	// Values holds each metric as measured and HostRefMS the host reference
	// timed around the same repeat, one entry per successful repeat.
	Values    map[string][]float64 `json:"values"`
	HostRefMS []float64            `json:"host_ref_ms"`
	Metrics   map[string]summary   `json:"metrics"`
}

// summary is one metric over a workload's repeats, at the reference host
// speed (see hostScale), with the median as measured beside it.
type summary struct {
	Unit           string  `json:"unit"`
	Median         float64 `json:"median"`
	Q1             float64 `json:"q1"`
	Q3             float64 `json:"q3"`
	N              int     `json:"n"`
	MeasuredMedian float64 `json:"measured_median"`
}

func (r *results) add(name string, rep repeat, hostRef float64) {
	w := r.Workloads[name]
	if w == nil {
		w = &workloadResult{Values: map[string][]float64{}}
		r.Workloads[name] = w
	}
	w.Repeats++
	w.Attempted += rep.ops
	w.Failed += rep.failed
	w.Problems = append(w.Problems, rep.problems...)
	w.WallS = append(w.WallS, rep.wall.Seconds())
	if rep.metrics == nil {
		return
	}
	w.HostRefMS = append(w.HostRefMS, hostRef)
	for k, v := range rep.metrics {
		w.Values[k] = append(w.Values[k], v)
	}
}

// finish computes every metric's median and quartiles at the reference
// host speed.
func (r *results) finish(spec *benchSpec) {
	for _, w := range r.Workloads {
		w.Metrics = map[string]summary{}
		for name, vals := range w.Values {
			m, _ := spec.metric(name)
			scaled := w.scaled(m)
			q1, q3 := quartiles(scaled)
			w.Metrics[name] = summary{Unit: m.Unit, Median: median(scaled), Q1: q1, Q3: q3, N: len(vals), MeasuredMedian: median(vals)}
		}
	}
}

// scaled returns a metric's values at the reference host speed.
func (w *workloadResult) scaled(m metricSpec) []float64 {
	vals := w.Values[m.Name]
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * hostScale(m.Unit, w.HostRefMS[i])
	}
	return out
}

// report prints the medians for a reader on standard error.
func (r *results) report(log io.Writer) {
	fmt.Fprintf(log, "bench: %s, GOMAXPROCS %d, nproc %d, commit %.12s, seed %d (size ×%g)\n",
		r.Env.Go, r.Env.GOMAXPROCS, r.Env.NProc, r.Env.Commit, r.Env.Seed, r.Env.SizeFactor)
	for _, name := range sortedKeys(r.Workloads) {
		w := r.Workloads[name]
		fmt.Fprintf(log, "%s: %d repeats, %d/%d failed, host_ref_ms %.1f\n", name, w.Repeats, w.Failed, w.Attempted, median(w.HostRefMS))
		for _, m := range sortedKeys(w.Metrics) {
			s := w.Metrics[m]
			fmt.Fprintf(log, "  %-16s %12.4f %-9s [%.4f, %.4f]  measured %.4f\n", m, s.Median, s.Unit, s.Q1, s.Q3, s.MeasuredMedian)
		}
	}
	for _, k := range sortedKeys(r.Layers) {
		fmt.Fprintf(log, "  %-36s %12.4f\n", k, r.Layers[k])
	}
}

// line is the result object printed as the last line of standard output.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line reports the end-to-end metrics' medians at the reference host speed,
// or the per-layer metrics with trace; with several workloads each name is
// prefixed "workload/".
// A metric that could not be measured makes the result incorrect.
func (r *results) line(spec *benchSpec, trace bool) line {
	l := line{Correct: true, Metrics: map[string]metricValue{}}
	put := func(name, unit string, v float64, ok bool) {
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			l.Correct, v = false, 0
		}
		l.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	for _, name := range sortedKeys(r.Workloads) {
		w := r.Workloads[name]
		l.Attempted += w.Attempted
		l.Failed += w.Failed
		if trace {
			continue
		}
		prefix := ""
		if len(r.Workloads) > 1 {
			prefix = name + "/"
		}
		for _, m := range spec.EndToEnd {
			s, ok := w.Metrics[m.Name]
			put(prefix+m.Name, m.Unit, s.Median, ok)
		}
	}
	if trace {
		for _, m := range spec.PerLayer {
			v, ok := r.Layers[m.Name]
			put(m.Name, m.Unit, v, ok)
		}
	}
	if l.Failed > 0 || l.Attempted == 0 {
		l.Correct = false
	}
	return l
}

// metricSpec is one metric as BENCHMARK.json defines it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: metric
// names, units, directions and regression bounds live only there.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"` // the default -seconds
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		return nil, errors.New("BENCHMARK.json: workloads differ from " + strings.Join(workloadNames, ", "))
	}
	return &s, nil
}

func (s *benchSpec) metric(name string) (metricSpec, bool) {
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
