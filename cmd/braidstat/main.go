// Command braidstat characterizes programs the way the paper's profiling
// tool does: dynamic value fanout and lifetime (§1) and the braid statistics
// of Tables 1-3.
//
// Usage:
//
//	braidstat -bench gcc            one generated benchmark
//	braidstat -kernel fig2          a built-in kernel
//	braidstat -suite                all 26 SPEC CPU2000 stand-ins
//	braidstat -suite -j 4           ... characterized 4 benchmarks at a time
//	braidstat -values -bench mcf    value fanout/lifetime only
//
// -ipc appends each benchmark's IPC on the 8-wide out-of-order and braid
// machines, simulated exactly in-process, to its report. -complexity adds
// the two machines' hardware-cost totals (uarch.EstimateComplexity) beneath
// each ipc line, quantifying the §5.1 complexity claim next to the speed it
// buys. Ctrl-C stops a -suite run without printing a partial suite.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"

	"braid/internal/braid"
	"braid/internal/cfg"
	"braid/internal/interp"
	"braid/internal/isa"
	"braid/internal/sweepflags"
	"braid/internal/uarch"
	"braid/internal/workload"
)

// options are braidstat's flags.
type options struct {
	bench, kernel   string
	suite, values   bool
	iters, jobs     int
	ipc, complexity bool
}

func addFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.bench, "bench", "", "generated benchmark name")
	fs.StringVar(&o.kernel, "kernel", "", "built-in kernel name")
	fs.BoolVar(&o.suite, "suite", false, "characterize the whole suite")
	fs.BoolVar(&o.values, "values", false, "value fanout/lifetime only")
	fs.IntVar(&o.iters, "iters", 50, "benchmark loop iterations")
	fs.IntVar(&o.jobs, "j", runtime.GOMAXPROCS(0), "benchmarks characterized in parallel (-suite)")
	fs.BoolVar(&o.ipc, "ipc", false, "append simulated IPC (8-wide o-o-o and braid) to each report; ignored with -values")
	fs.BoolVar(&o.complexity, "complexity", false, "append each machine's hardware-cost estimate to the -ipc section (needs -ipc)")
	return o
}

func main() {
	o := addFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := o.run(ctx)
	if err != nil {
		sweepflags.Fatal("braidstat", err)
	}
	fmt.Print(out)
}

// run builds the text braidstat prints.
func (o *options) run(ctx context.Context) (string, error) {
	if o.complexity && (!o.ipc || o.values) {
		return "", fmt.Errorf("-complexity needs -ipc (and is meaningless with -values)")
	}
	switch {
	case o.suite:
		return o.suiteReport(ctx)
	case o.bench != "":
		prof, ok := workload.ProfileByName(o.bench)
		if !ok {
			return "", fmt.Errorf("unknown benchmark %q", o.bench)
		}
		p, err := workload.Generate(prof, o.iters)
		if err != nil {
			return "", err
		}
		return o.report(ctx, p)
	case o.kernel != "":
		p, ok := workload.KernelByName(o.kernel)
		if !ok {
			return "", fmt.Errorf("unknown kernel %q", o.kernel)
		}
		return o.report(ctx, p)
	}
	return "", fmt.Errorf("need -bench, -kernel, or -suite")
}

// suiteReport characterizes every profile through a bounded worker pool and
// joins the reports in profile order, whatever order they finish in. Ctrl-C
// stops workers from starting new benchmarks and returns no partial suite.
func (o *options) suiteReport(ctx context.Context) (string, error) {
	profs := workload.Profiles()
	jobs := o.jobs
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(profs) {
		jobs = len(profs)
	}

	reports := make([]string, len(profs))
	errs := make([]error, len(profs))
	work := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					continue // drain without starting new work
				}
				p, err := workload.Generate(profs[i], o.iters)
				if err == nil {
					reports[i], err = o.report(ctx, p)
				}
				errs[i] = err
			}
		}()
	}
	for i := range profs {
		work <- i
	}
	close(work)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("interrupted; no partial suite printed (%w)", err)
	}
	var b strings.Builder
	for i, prof := range profs {
		if errs[i] != nil {
			return "", fmt.Errorf("%s: %w", prof.Name, errs[i])
		}
		fmt.Fprintf(&b, "--- %s ---\n%s", prof.Name, reports[i])
	}
	return b.String(), nil
}

// report builds one program's characterization text (§1 values, control
// flow, Tables 1-3 braid statistics, and with -ipc the IPC of the 8-wide
// out-of-order and braid machines). A panic in the pipeline becomes the
// program's error, so one bad program cannot kill a -suite pool.
func (o *options) report(ctx context.Context, p *isa.Program) (s string, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = "", fmt.Errorf("characterization panic: %v\n%s", r, debug.Stack())
		}
	}()
	var b strings.Builder
	vs, err := interp.Characterize(p, 100_000_000)
	if err != nil {
		return "", err
	}
	b.WriteString(vs.String())
	if o.values {
		return b.String(), nil
	}
	if g, err := cfg.Build(p); err == nil {
		loops := cfg.NaturalLoops(g)
		fmt.Fprintf(&b, "control flow: %d blocks, %d natural loops\n", len(g.Blocks), len(loops))
	}
	res, err := braid.Compile(p, braid.Options{})
	if err != nil {
		return "", err
	}
	ds := braid.NewDynamicStats(res)
	m := interp.New(res.Prog)
	if _, err := m.Run(100_000_000, func(si *interp.StepInfo) { ds.OnRetire(si.Index) }); err != nil {
		return "", err
	}
	st := ds.Stats()
	b.WriteString(st.String())
	if !o.ipc {
		return b.String(), nil
	}
	ooo, err := uarch.SimulateChecked(ctx, p, uarch.OutOfOrderConfig(8))
	if err != nil {
		return "", err
	}
	br, err := uarch.SimulateChecked(ctx, res.Prog, uarch.BraidConfig(8))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "ipc: o-o-o/8w %.4f  braid/8w %.4f\n", ooo.IPC(), br.IPC())
	if o.complexity {
		co := uarch.EstimateComplexity(uarch.OutOfOrderConfig(8)).Total()
		cb := uarch.EstimateComplexity(uarch.BraidConfig(8)).Total()
		fmt.Fprintf(&b, "complexity: o-o-o/8w %.0f  braid/8w %.0f (%.1f%%)\n", co, cb, 100*cb/co)
	}
	return b.String(), nil
}
