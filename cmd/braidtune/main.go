// Command braidtune searches the microarchitecture design space for the
// IPC × hardware-complexity Pareto frontier — the paper's argument, recovered
// by optimization instead of by hand. The search is a seeded, deterministic
// NSGA-II-lite genetic loop over a typed parameter lattice (core paradigm,
// width, queue sizes, register-file geometry, bypass depth, predictor size);
// every candidate machine is evaluated through the same experiments pipeline
// as braidbench, so memoization, interval sampling, remote fleet execution,
// and contained-fault accounting all compose with it unchanged.
//
// Determinism contract: with equal -seed/-pop/-budget/-workloads/-sample and
// suite -dyn, the printed front and its digest are byte-identical at any -j,
// on any mix of local and remote execution, and across any number of
// interruptions — Ctrl-C, then rerun with -checkpoint f -resume, converges to
// the same front as an undisturbed run.
//
// -checkpoint is braidbench's point journal: every finished simulation is
// appended as it completes, keyed by the SHA-256 of the simulated program.
// -resume restores the journal's points and reruns the search, which
// retraces the interrupted run (each generation reseeds its RNG from the
// seed and the generation index) and simulates only the points the journal
// lacks. A journal from other parameters restores the points they share;
// one written by braidtune before it used the point journal is refused.
//
// Usage:
//
//	braidtune -budget 200 -seed 1 -front BENCH_pareto.json
//	braidtune -checkpoint tune.jsonl                    # interruptible
//	braidtune -checkpoint tune.jsonl -resume            # pick up after ^C
//	braidtune -workloads gcc,mcf,gzip,swim -sample 100000:5000
//	braidtune -remote 127.0.0.1:8091,127.0.0.1:8092 -hedge
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"braid/internal/experiments"
	"braid/internal/explore"
	"braid/internal/remote"
	"braid/internal/uarch"
)

func main() {
	// As in braidbench: simulation runs reuse one another's memory, so most
	// garbage is suite preparation, and collecting it lazily saves time.
	debug.SetGCPercent(400)

	var (
		seed       = flag.Int64("seed", 1, "search RNG seed; the determinism contract is per seed")
		pop        = flag.Int("pop", 16, "population size")
		budget     = flag.Int("budget", 96, "unique design points to simulate before stopping")
		dyn        = flag.Uint64("dyn", 30000, "dynamic instructions per benchmark")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulations (0: one per processor)")
		workloads  = flag.String("workloads", "", "comma-separated benchmark subset (empty: whole suite)")
		sample     = flag.String("sample", "", "interval sampling geometry period:detail[:warmup]; empty runs exact")
		checkpoint = flag.String("checkpoint", "", "append every completed simulation to this JSONL file")
		resume     = flag.Bool("resume", false, "reload finished simulations from -checkpoint before searching")
		frontOut   = flag.String("front", "", "write the final front as JSON to this file ('-': stdout)")
		crashDir   = flag.String("crashdir", "crashes", "directory for simulator-fault repro artifacts")
		simTimeout = flag.Duration("sim-timeout", 0, "wall-clock budget per simulation (0: none)")
		remoteList = flag.String("remote", "", "comma-separated braidd base URLs; simulations run on these backends")
		hedge      = flag.Bool("hedge", false, "hedge slow remote requests onto a second backend (needs -remote)")
		fallback   = flag.String("fallback", "fail", "when every backend attempt fails: 'local' simulates in-process, 'fail' contains the point (needs -remote)")
		probe      = flag.Duration("probe", 0, "background health-probe interval for -remote backends (0: off)")
		inject     = flag.Int("inject-fault", 0, "arm the Nth unique evaluation with a pipeline fault (CI containment check; 0: off)")
	)
	flag.Parse()

	sampling, err := uarch.ParseSampling(*sample)
	if err != nil {
		fatal(err)
	}

	var names []string
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	fmt.Fprintf(os.Stderr, "braidtune: preparing suite (~%d dynamic instructions each, %d workers)\n", *dyn, *jobs)
	w, err := experiments.LoadSuiteCtx(ctx, *dyn, *jobs)
	if err != nil {
		fatal(err)
	}
	w.SetTimeout(*simTimeout)
	w.SetCrashDir(*crashDir)
	if sampling.Enabled() {
		w.SetSampling(sampling)
		fmt.Fprintf(os.Stderr, "braidtune: interval sampling %s (IPC values are estimates)\n", sampling)
	}
	benches, err := explore.SelectBenches(w, names)
	if err != nil {
		fatal(err)
	}

	var pool *remote.Pool
	if *remoteList != "" {
		fb, perr := remote.ParseFallback(*fallback)
		if perr != nil {
			fatal(perr)
		}
		pool, perr = remote.NewPool(remote.Options{
			Backends:  strings.Split(*remoteList, ","),
			Hedge:     *hedge,
			TimeoutMS: simTimeout.Milliseconds(),
			Fallback:  fb,
		})
		if perr == nil {
			var down []string
			if down, perr = pool.Ping(ctx); len(down) > 0 {
				fmt.Fprintf(os.Stderr, "braidtune: unreachable backends (will fail over): %s\n", strings.Join(down, ","))
			}
		}
		if perr != nil {
			fatal(perr)
		}
		if *probe > 0 {
			stopProbe := pool.StartProber(ctx, *probe)
			defer stopProbe()
		}
		w.SetRunner(pool)
		fmt.Fprintf(os.Stderr, "braidtune: remote execution over %d backend(s)\n", len(pool.Backends()))
	}

	opt := explore.Options{
		Seed:          *seed,
		Pop:           *pop,
		Budget:        *budget,
		InjectFaultAt: *inject,
		Log:           os.Stderr,
	}

	if *checkpoint != "" {
		restored, err := w.OpenCheckpoint(*checkpoint, *resume)
		if err != nil {
			fatal(err)
		}
		if *resume {
			fmt.Fprintf(os.Stderr, "braidtune: resumed %d finished simulations from %s\n", restored, *checkpoint)
		}
	}

	fmt.Fprintf(os.Stderr, "braidtune: suite ready in %v; searching (%d workloads, pop %d, budget %d, seed %d)\n",
		time.Since(start).Round(time.Millisecond), len(benches), *pop, *budget, *seed)

	res, err := explore.Search(ctx, w, benches, opt)
	if err != nil {
		if errors.Is(err, uarch.ErrCanceled) || errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "braidtune: interrupted")
			if *checkpoint != "" {
				fmt.Fprintf(os.Stderr, "; rerun with -checkpoint %s -resume to continue", *checkpoint)
			}
			fmt.Fprintln(os.Stderr)
			w.CloseCheckpoint()
			os.Exit(130)
		}
		fatal(err)
	}

	report(w, benches, res)
	if *frontOut != "" {
		if err := writeFront(w, benches, res, *seed, *pop, *budget, names, sampling, *dyn, *frontOut); err != nil {
			fatal(err)
		}
	}
	// Closed only now, so the reference machines' points are journaled too.
	if err := w.CloseCheckpoint(); err != nil {
		fatal(err)
	}
	if failures := w.Failures(); len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "braidtune: %d simulations failed and were contained (their configs scored infeasible):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "braidtune:   %s\n", f)
		}
	}
	fmt.Fprintf(os.Stderr, "braidtune: %d generations, %d design points, %d simulations, front digest %s, %v total\n",
		res.Generations, res.Evaluations, w.SimRuns(), res.Digest[:12], time.Since(start).Round(time.Millisecond))
}

// report prints the front as a text table with the two reference machines
// (the paper's Table 4 designs) evaluated through the same pipeline.
func report(w *experiments.Workloads, benches []*experiments.Bench, res *explore.Result) {
	fmt.Printf("Pareto front: geomean IPC vs estimated complexity (%d points)\n", len(res.Front))
	fmt.Printf("%-44s %8s %12s\n", "machine", "ipc", "complexity")
	for _, e := range res.Front {
		fmt.Printf("%-44s %8.3f %12.0f\n", e.Genome, e.IPC, e.Cost)
	}
	for _, ref := range referencePoints(w, benches) {
		fmt.Printf("%-44s %8.3f %12.0f  (reference)\n", ref.Name, ref.IPC, ref.Cost)
	}
}

// refPoint is a hand-built reference machine scored through the same
// pipeline, for calibrating the front against the paper's designs.
type refPoint struct {
	Name string  `json:"name"`
	IPC  float64 `json:"ipc"`
	Cost float64 `json:"cost"`
}

func referencePoints(w *experiments.Workloads, benches []*experiments.Bench) []refPoint {
	var out []refPoint
	for _, r := range []struct {
		name    string
		cfg     uarch.Config
		braided bool
	}{
		{"reference out-of-order/8w (Table 4)", uarch.OutOfOrderConfig(8), false},
		{"reference braid/8w (Table 4)", uarch.BraidConfig(8), true},
	} {
		logSum, n := 0.0, 0
		for _, b := range benches {
			v, err := w.IPC(b, r.braided, r.cfg)
			if err != nil {
				n = 0
				break
			}
			logSum += math.Log(v)
			n++
		}
		if n == 0 {
			continue // contained failure; skip the reference row
		}
		out = append(out, refPoint{
			Name: r.name,
			IPC:  math.Exp(logSum / float64(n)),
			Cost: uarch.EstimateComplexity(r.cfg).Total(),
		})
	}
	return out
}

// frontFile is the -front JSON schema (BENCH_pareto.json).
type frontFile struct {
	Meta        explore.Meta `json:"meta"`
	Generations int          `json:"generations"`
	Evaluations int          `json:"evaluations"`
	Digest      string       `json:"digest"`
	Reference   []refPoint   `json:"reference"`
	Front       []frontEntry `json:"front"`
}

type frontEntry struct {
	Machine string `json:"machine"` // human-readable genome summary
	explore.Eval
}

func writeFront(w *experiments.Workloads, benches []*experiments.Bench, res *explore.Result,
	seed int64, pop, budget int, names []string, sampling uarch.Sampling, dyn uint64, path string) error {
	ff := frontFile{
		Meta: explore.Meta{
			Lattice: explore.LatticeVersion,
			Seed:    seed, Pop: pop, Budget: budget,
			Workloads: names, Sampling: samplingKey(sampling), DynTarget: dyn,
		},
		Generations: res.Generations,
		Evaluations: res.Evaluations,
		Digest:      res.Digest,
		Reference:   referencePoints(w, benches),
	}
	for _, e := range res.Front {
		ff.Front = append(ff.Front, frontEntry{Machine: e.Genome.String(), Eval: e})
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
	return enc.Encode(ff)
}

// samplingKey renders the sampling geometry for the -front meta ("" = exact).
func samplingKey(sp uarch.Sampling) string {
	if !sp.Enabled() {
		return ""
	}
	return sp.String()
}

// fatal reports err and exits: 130 for cancellation (Ctrl-C can land during
// suite preparation, before the search loop's own interrupt handling), 1 for
// everything else.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "braidtune: %v\n", err)
	if errors.Is(err, uarch.ErrCanceled) || errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	os.Exit(1)
}
