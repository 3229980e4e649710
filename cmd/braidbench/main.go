// Command braidbench regenerates every table and figure of the paper's
// evaluation. With no flags it runs all experiments and prints text tables;
// -exp selects one experiment, -md emits markdown (used to build
// EXPERIMENTS.md), and -dyn sets the per-benchmark dynamic instruction
// budget.
//
// The runner is fault tolerant: a simulator panic or cycle-budget blowout on
// one design point is contained (reported to stderr, with a crash artifact
// under -crashdir), and the sweep continues. -checkpoint appends every
// completed simulation to a JSONL file; after Ctrl-C or a crash, rerunning
// with -resume replays the finished points and produces bit-identical output
// without re-simulating them.
//
// -remote host1,host2 runs the simulations on a fleet of braidd backends
// instead of in-process, routing all of a program's design points to one
// backend by rendezvous hash on the program image, with retry and failover;
// output, checkpoints, and -resume behave identically to local runs. -hedge
// duplicates straggling requests onto a second backend, and -remote-verify N
// re-simulates ~1 in N points locally and requires the remote stats to match
// byte for byte.
// A backend that fails three attempts in a row is ejected: routing skips it
// until an attempt after a 1 s cooldown is answered. -probe adds a
// background health prober that also ejects backends failing /healthz or a
// known-answer canary, and -fallback local degrades to in-process
// simulation when the whole fleet is unavailable, keeping output identical.
//
// Usage:
//
//	braidbench [-exp id] [-dyn N] [-j N] [-md] [-list]
//	braidbench -checkpoint sweep.jsonl            # interruptible sweep
//	braidbench -checkpoint sweep.jsonl -resume    # pick up where it stopped
//	braidbench -exp fig13 -remote 127.0.0.1:8091,127.0.0.1:8092 -hedge
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"braid/internal/experiments"
	"braid/internal/sweepflags"
	"braid/internal/uarch"
)

func main() {
	var (
		expID      = flag.String("exp", "", "run a single experiment (see -list)")
		md         = flag.Bool("md", false, "emit markdown instead of text tables")
		csv        = flag.Bool("csv", false, "emit comma-separated values instead of text tables")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		ablations  = flag.Bool("ablations", false, "run the ablation studies instead of the paper artifacts")
		complexity = flag.Bool("complexity", false, "print the §5.1 structure-complexity comparison and exit")
		throughput = flag.Bool("throughput", false, "append a JSON simulator-throughput summary to stdout")
		accuracy   = flag.String("sampling-accuracy", "", "write an exact-vs-sampled suite accuracy report (JSON) to this file and exit")
		suite      = sweepflags.AddSuite(flag.CommandLine)
	)
	flag.Parse()

	if *complexity {
		fmt.Print(uarch.ComplexityReport(8))
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		for _, e := range experiments.Ablations() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	var todo []experiments.Experiment
	switch {
	case *expID != "":
		e, ok := experiments.ByID(*expID)
		if !ok {
			e, ok = experiments.AblationByID(*expID)
		}
		if !ok {
			sweepflags.Fatal("braidbench", fmt.Errorf("unknown experiment %q (try -list)", *expID))
		}
		todo = []experiments.Experiment{e}
	case *ablations:
		todo = experiments.Ablations()
	default:
		todo = experiments.All()
	}

	// Ctrl-C cancels the whole suite: in-flight simulations notice within a
	// few thousand cycles, queued ones never start, and -resume restarts
	// from the checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *accuracy != "" {
		if err := checkAccuracyFlags(flag.CommandLine); err != nil {
			sweepflags.Fatal("braidbench", err)
		}
	}
	start := time.Now()
	sw, err := suite.Load(ctx, "braidbench")
	if err != nil {
		sweepflags.Fatal("braidbench", err)
	}
	w := sw.Workloads

	if *accuracy != "" {
		sp := w.Sampling()
		if !sp.Enabled() {
			// The harness default: geometry tuned so million-instruction
			// benchmarks land under 2% error at >5x suite speedup.
			sp = uarch.Sampling{Period: 100_000, Detail: 5_000, Warmup: 5_000}
		}
		if err := writeAccuracyReport(ctx, w, sp, *accuracy); err != nil {
			sweepflags.Fatal("braidbench", err)
		}
		return
	}
	if err := sw.Attach(ctx); err != nil {
		sweepflags.Fatal("braidbench", err)
	}
	fmt.Fprintf(os.Stderr, "braidbench: suite ready in %v\n", time.Since(start).Round(time.Millisecond))

	exit := 0
	for _, e := range todo {
		t0 := time.Now()
		res, err := e.Run(w)
		switch {
		case errors.Is(err, uarch.ErrCanceled):
			sw.Fatal(err, e.ID)
		case err != nil:
			// A non-contained failure kills this experiment but not the
			// rest of the run: later experiments may still be computable.
			fmt.Fprintf(os.Stderr, "braidbench: %s failed: %v\n", e.ID, err)
			exit = 1
			continue
		}
		switch {
		case *md:
			fmt.Print(res.Markdown())
		case *csv:
			fmt.Printf("# %s: %s\n%s\n", res.ID, res.Title, res.CSV())
		default:
			fmt.Println(res.String())
		}
		fmt.Fprintf(os.Stderr, "braidbench: %s done in %v\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	if err := sw.Finish("design points failed and were skipped:", fmt.Sprintf("%d experiments, %d simulations, %v total",
		len(todo), w.SimRuns(), time.Since(start).Round(time.Millisecond))); err != nil {
		fmt.Fprintf(os.Stderr, "braidbench: %v\n", err)
		exit = 1
	}

	if *throughput {
		secs := time.Since(start).Seconds()
		summary := struct {
			Simulations uint64 `json:"simulations"`
			// Instructions is everything retired; Detailed ran on the
			// cycle-level engine, FFwd was functionally fast-forwarded by
			// sampled runs. MIPS rates the detailed engine only (honest
			// under sampling); EffectiveMIPS rates total retirement — the
			// sweep-level throughput sampling buys. Exact runs report the
			// two equal.
			Instructions  uint64  `json:"instructions"`
			Detailed      uint64  `json:"detailed_instructions"`
			FFwd          uint64  `json:"fastforward_instructions"`
			Cycles        uint64  `json:"cycles"`
			Seconds       float64 `json:"seconds"`
			MIPS          float64 `json:"mips"`
			EffectiveMIPS float64 `json:"effective_mips"`
			Jobs          int     `json:"jobs"`
		}{
			Simulations:   w.SimRuns(),
			Instructions:  w.SimInstrs(),
			Detailed:      w.SimDetailedInstrs(),
			FFwd:          w.SimFFwdInstrs(),
			Cycles:        w.SimCycles(),
			Seconds:       secs,
			MIPS:          float64(w.SimDetailedInstrs()) / secs / 1e6,
			EffectiveMIPS: float64(w.SimInstrs()) / secs / 1e6,
			Jobs:          suite.Jobs,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			fmt.Fprintf(os.Stderr, "braidbench: %v\n", err)
			exit = 1
		}
	}
	if exit != 0 {
		os.Exit(exit)
	}
}

// checkAccuracyFlags names the first of -remote, -checkpoint and
// -sim-timeout set on fs: the accuracy sweep simulates in-process, journals
// nothing and runs without a deadline, so each would go without effect.
// The fleet flags and -resume then fail Suite.Load's own checks.
func checkAccuracyFlags(fs *flag.FlagSet) error {
	for _, name := range []string{"remote", "checkpoint", "sim-timeout"} {
		if f := fs.Lookup(name); f.Value.String() != f.DefValue {
			return fmt.Errorf("-sampling-accuracy simulates in-process: -%s has no effect", name)
		}
	}
	return nil
}

// writeAccuracyReport sweeps the suite exact-vs-sampled for the two
// paradigms most sweeps simulate — the 8-wide out-of-order baseline on the
// original binaries and the 8-wide braid machine on the braided ones — and
// writes both reports as a JSON array (BENCH_sampling_accuracy.json).
func writeAccuracyReport(ctx context.Context, w *experiments.Workloads, sp uarch.Sampling, path string) error {
	fmt.Fprintf(os.Stderr, "braidbench: accuracy sweep, sampling %s (sequential exact+sampled per benchmark)\n", sp)
	var reports []*experiments.AccuracyReport
	for _, c := range []struct {
		cfg     uarch.Config
		braided bool
	}{
		{uarch.OutOfOrderConfig(8), false},
		{uarch.BraidConfig(8), true},
	} {
		t0 := time.Now()
		rep, err := experiments.MeasureAccuracy(ctx, w, c.cfg, c.braided, sp)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "braidbench: %s braided=%v: mean |err| %.2f%%, max %.2f%%, suite speedup %.1fx (%v)\n",
			rep.Core, rep.Braided, 100*rep.MeanAbsRelErr, 100*rep.MaxAbsRelErr, rep.SuiteSpeedup,
			time.Since(t0).Round(time.Millisecond))
		reports = append(reports, rep)
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}
