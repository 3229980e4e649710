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
// one written by braidtune before it used the point journal is refused. A
// search whose -remote-verify check failed removes the journal, which may
// hold the lying backend's unverified answers.
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
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"braid/internal/experiments"
	"braid/internal/explore"
	"braid/internal/sweepflags"
	"braid/internal/uarch"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "search RNG seed; the determinism contract is per seed")
		pop       = flag.Int("pop", 16, "population size")
		budget    = flag.Int("budget", 96, "unique design points to simulate before stopping")
		workloads = flag.String("workloads", "", "comma-separated benchmark subset (empty: whole suite)")
		frontOut  = flag.String("front", "", "write the final front as JSON to this file ('-': stdout)")
		suite     = sweepflags.AddSuite(flag.CommandLine)
	)
	flag.Parse()

	var names []string
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	sw, err := suite.Load(ctx, "braidtune")
	if err != nil {
		sweepflags.Fatal("braidtune", err)
	}
	w := sw.Workloads
	// Checked before Attach, which truncates a -checkpoint journal.
	benches, err := explore.SelectBenches(w, names)
	if err != nil {
		sweepflags.Fatal("braidtune", err)
	}
	if err := sw.Attach(ctx); err != nil {
		sweepflags.Fatal("braidtune", err)
	}
	fmt.Fprintf(os.Stderr, "braidtune: suite ready in %v; searching (%d workloads, pop %d, budget %d, seed %d)\n",
		time.Since(start).Round(time.Millisecond), len(benches), *pop, *budget, *seed)

	res, err := explore.Search(ctx, w, benches, explore.Options{
		Seed:   *seed,
		Pop:    *pop,
		Budget: *budget,
		Log:    os.Stderr,
	})
	if err != nil {
		sw.Fatal(err, "")
	}

	report(w, benches, res)
	if *frontOut != "" {
		if err := writeFront(w, benches, res, *seed, *pop, *budget, names, suite.Dyn, *frontOut); err != nil {
			sweepflags.Fatal("braidtune", err)
		}
	}
	// Finished only now, so the reference machines' points are journaled too.
	if err := sw.Finish("simulations failed and were contained (their configs scored infeasible):",
		fmt.Sprintf("%d generations, %d design points, %d simulations, front digest %s, %v total",
			res.Generations, res.Evaluations, w.SimRuns(), res.Digest[:12], time.Since(start).Round(time.Millisecond))); err != nil {
		sweepflags.Fatal("braidtune", err)
	}
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
	seed int64, pop, budget int, names []string, dyn uint64, path string) error {
	ff := frontFile{
		Meta: explore.Meta{
			Lattice: explore.LatticeVersion,
			Seed:    seed, Pop: pop, Budget: budget,
			Workloads: names, Sampling: samplingKey(w.Sampling()), DynTarget: dyn,
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
