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
// With -suite, -checkpoint appends each finished benchmark's report to a
// JSONL file; Ctrl-C stops the pool without printing a partial suite, and
// rerunning with -resume reloads the finished reports and only
// recharacterizes the rest, producing identical output.
//
// -ipc appends each benchmark's simulated IPC (8-wide out-of-order and
// braid) to its report; with -remote host1,host2 those simulations run on
// braidd backends through the internal/remote pool (-hedge duplicates
// stragglers, -remote-verify cross-checks a sample locally), producing
// byte-identical output to local execution. -complexity adds the two
// machines' hardware-cost totals (uarch.EstimateComplexity) beneath each
// ipc line, quantifying the §5.1 complexity claim next to the speed it buys.
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
	"braid/internal/experiments"
	"braid/internal/interp"
	"braid/internal/isa"
	"braid/internal/journal"
	"braid/internal/sweepflags"
	"braid/internal/uarch"
	"braid/internal/workload"
)

func main() {
	var (
		bench      = flag.String("bench", "", "generated benchmark name")
		kernel     = flag.String("kernel", "", "built-in kernel name")
		suite      = flag.Bool("suite", false, "characterize the whole suite")
		values     = flag.Bool("values", false, "value fanout/lifetime only")
		iters      = flag.Int("iters", 50, "benchmark loop iterations")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "benchmarks characterized in parallel (-suite)")
		checkpoint = flag.String("checkpoint", "", "append finished suite reports to this JSONL file")
		resume     = flag.Bool("resume", false, "reload finished reports from -checkpoint before running")
		ipc        = flag.Bool("ipc", false, "append simulated IPC (8-wide o-o-o and braid) to each report; ignored with -values")
		sample     = flag.String("sample", "", "interval sampling geometry period:detail[:warmup] for -ipc simulations; empty runs exact")
		complexity = flag.Bool("complexity", false, "append each machine's hardware-cost estimate to the -ipc section (needs -ipc)")
		fleet      = sweepflags.AddFleet(flag.CommandLine)
	)
	flag.Parse()

	sampling, err := uarch.ParseSampling(*sample)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// run executes the -ipc section's simulations: in-process by default,
	// through the remote pool with -remote. Both are deterministic and return
	// identical Stats, so reports are byte-identical either way. nil: no -ipc.
	var run experiments.Runner
	if *ipc && !*values {
		run = experiments.LocalRunner{}
		pool, err := fleet.Connect(ctx, "braidstat", 0)
		if err != nil {
			fatal(err)
		}
		if pool != nil {
			run = pool
			defer func() { fmt.Fprintf(os.Stderr, "braidstat: remote pool: %s\n", pool) }()
		}
	}

	if *complexity && (!*ipc || *values) {
		fatal(fmt.Errorf("-complexity needs -ipc (and is meaningless with -values)"))
	}

	switch {
	case *suite:
		characterizeSuite(ctx, *iters, *values, *jobs, *checkpoint, *resume, run, sampling, *complexity)
	case *bench != "":
		prof, ok := workload.ProfileByName(*bench)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q", *bench))
		}
		p, err := workload.Generate(prof, *iters)
		if err != nil {
			fatal(err)
		}
		characterize(ctx, p, *values, run, sampling, *complexity)
	case *kernel != "":
		p, ok := workload.KernelByName(*kernel)
		if !ok {
			fatal(fmt.Errorf("unknown kernel %q", *kernel))
		}
		characterize(ctx, p, *values, run, sampling, *complexity)
	default:
		fatal(fmt.Errorf("need -bench, -kernel, or -suite"))
	}
}

// statRecord is one finished benchmark report in the -checkpoint JSONL. The
// key fields guard against resuming a checkpoint taken with different
// characterization parameters, which would silently mix reports. IPC guards
// the -ipc report section; records written without it resume only runs that
// also omit it (remote vs local does not matter — the section is identical).
// Sampling records the -sample geometry, so exact and sampled runs never
// resume each other's reports.
type statRecord struct {
	Name       string `json:"name"`
	Iters      int    `json:"iters"`
	ValuesOnly bool   `json:"values_only"`
	IPC        bool   `json:"ipc,omitempty"`
	Sampling   string `json:"sampling,omitempty"`
	Complexity bool   `json:"complexity,omitempty"`
	Report     string `json:"report"`
}

// openStatCheckpoint opens the -checkpoint journal. With resume it also
// returns the reports already finished, keyed by benchmark name, skipping
// records whose parameters differ from key's (key has no Name or Report).
func openStatCheckpoint(path string, resume bool, key statRecord) (*journal.Journal, map[string]string, error) {
	j, recs, err := journal.Open[statRecord](path, resume)
	if err != nil {
		return nil, nil, err
	}
	done := map[string]string{}
	for _, rec := range recs {
		name, report := rec.Name, rec.Report
		rec.Name, rec.Report = "", ""
		if rec == key {
			done[name] = report
		}
	}
	return j, done, nil
}

// characterizeSuite runs every profile through a bounded worker pool and
// prints the reports in profile order, whatever order they finish in. A
// panic while characterizing one benchmark is contained to that benchmark;
// Ctrl-C stops workers from starting new benchmarks and exits without
// printing a partial suite.
func characterizeSuite(ctx context.Context, iters int, valuesOnly bool, jobs int, ckptPath string, resume bool, run experiments.Runner, sampling uarch.Sampling, complexity bool) {
	key := statRecord{Iters: iters, ValuesOnly: valuesOnly, IPC: run != nil, Complexity: complexity}
	if sampling.Enabled() {
		key.Sampling = sampling.String()
	}
	profs := workload.Profiles()
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(profs) {
		jobs = len(profs)
	}

	reports := make([]string, len(profs))
	errs := make([]error, len(profs))
	var ckpt *journal.Journal
	if ckptPath != "" {
		j, done, err := openStatCheckpoint(ckptPath, resume, key)
		if err != nil {
			fatal(err)
		}
		ckpt = j
		if resume {
			restored := 0
			for i, prof := range profs {
				if r, ok := done[prof.Name]; ok {
					reports[i] = r
					restored++
				}
			}
			fmt.Fprintf(os.Stderr, "braidstat: resumed %d finished reports from %s\n", restored, ckptPath)
		}
	}

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
				p, err := workload.Generate(profs[i], iters)
				if err != nil {
					errs[i] = err
					continue
				}
				reports[i], errs[i] = reportChecked(ctx, p, valuesOnly, run, sampling, complexity)
				if errs[i] == nil && ckpt != nil {
					rec := key
					rec.Name, rec.Report = profs[i].Name, reports[i]
					// A failed append is kept by the journal and reported
					// by its Close below.
					_ = ckpt.Append(&rec)
				}
			}
		}()
	}
	for i := range profs {
		if reports[i] != "" {
			continue // restored from the checkpoint
		}
		work <- i
	}
	close(work)
	wg.Wait()
	if ckpt != nil {
		if err := ckpt.Close(); err != nil {
			fatal(fmt.Errorf("checkpoint %s: %w", ckptPath, err))
		}
	}

	if ctx.Err() != nil {
		msg := "braidstat: interrupted; no partial suite printed"
		if ckptPath != "" {
			msg += fmt.Sprintf(" (rerun with -checkpoint %s -resume to continue)", ckptPath)
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(130)
	}
	for i, prof := range profs {
		if errs[i] != nil {
			fatal(fmt.Errorf("%s: %w", prof.Name, errs[i]))
		}
		fmt.Printf("--- %s ---\n%s", prof.Name, reports[i])
	}
}

func characterize(ctx context.Context, p *isa.Program, valuesOnly bool, run experiments.Runner, sp uarch.Sampling, complexity bool) {
	s, err := report(ctx, p, valuesOnly, run, sp, complexity)
	if err != nil {
		fatal(err)
	}
	fmt.Print(s)
}

// reportChecked contains a panic in the characterization pipeline to the
// benchmark that triggered it, so one bad program cannot kill the pool.
func reportChecked(ctx context.Context, p *isa.Program, valuesOnly bool, run experiments.Runner, sp uarch.Sampling, complexity bool) (s string, err error) {
	defer func() {
		if r := recover(); r != nil {
			s = ""
			err = fmt.Errorf("characterization panic: %v\n%s", r, debug.Stack())
		}
	}()
	return report(ctx, p, valuesOnly, run, sp, complexity)
}

// report builds one program's characterization text (§1 values, control
// flow, Tables 1-3 braid statistics, and with -ipc the simulated IPC of the
// 8-wide out-of-order and braid machines, simulated by run under sp).
func report(ctx context.Context, p *isa.Program, valuesOnly bool, run experiments.Runner, sp uarch.Sampling, complexity bool) (string, error) {
	var b strings.Builder
	vs, err := interp.Characterize(p, 100_000_000)
	if err != nil {
		return "", err
	}
	b.WriteString(vs.String())
	if valuesOnly {
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
	if run != nil {
		ooo, oooEst, err := run.SimulateSampled(ctx, p, uarch.OutOfOrderConfig(8), sp)
		if err != nil {
			return "", err
		}
		br, brEst, err := run.SimulateSampled(ctx, res.Prog, uarch.BraidConfig(8), sp)
		if err != nil {
			return "", err
		}
		// Exact runs keep the historical line byte-for-byte; sampled runs
		// annotate each estimate with its 95% confidence half-width.
		fmt.Fprintf(&b, "ipc: o-o-o/8w %.4f%s  braid/8w %.4f%s\n",
			ooo.IPC(), ciSuffix(oooEst), br.IPC(), ciSuffix(brEst))
		if complexity {
			co := uarch.EstimateComplexity(uarch.OutOfOrderConfig(8)).Total()
			cb := uarch.EstimateComplexity(uarch.BraidConfig(8)).Total()
			fmt.Fprintf(&b, "complexity: o-o-o/8w %.0f  braid/8w %.0f (%.1f%%)\n", co, cb, 100*cb/co)
		}
	}
	return b.String(), nil
}

// ciSuffix renders a sampled estimate's relative 95% confidence interval as
// "±x.x%". Exact results (nil estimate, or a sampled run that fell back to
// exact simulation) render nothing, keeping exact output byte-identical.
func ciSuffix(est *uarch.SampleEstimate) string {
	if est == nil || est.Exact {
		return ""
	}
	return fmt.Sprintf("±%.1f%%", est.IPCRelCI*100)
}

func fatal(err error) { sweepflags.Fatal("braidstat", err) }
