// Command braidsim runs one program on one machine configuration and prints
// the pipeline statistics. It is the single-run counterpart of braidbench.
//
// Usage:
//
//	braidsim -bench gcc -core braid           braided gcc on the braid machine
//	braidsim -bench gcc -core ooo -width 16   16-wide out-of-order
//	braidsim -kernel dot -core inorder
//	braidsim file.s -core dep
//	braidsim -config crashes/gcc-braid-braided=true.json
//
// The braid core automatically braids the input program first; other cores
// run it as-is. -perfect-bp and -perfect-mem select the idealized front end
// of Figure 1. -config replays a crash artifact written by the braidbench
// fault-tolerant runner: the saved program image runs under the exact saved
// configuration, reproducing the original simulator fault.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"braid/internal/asm"
	"braid/internal/braid"
	"braid/internal/experiments"
	"braid/internal/isa"
	"braid/internal/uarch"
	"braid/internal/workload"
)

func main() {
	var (
		bench      = flag.String("bench", "", "generated benchmark name")
		kernel     = flag.String("kernel", "", "built-in kernel name")
		core       = flag.String("core", "ooo", "core: inorder, dep, braid, ooo")
		width      = flag.Int("width", 8, "issue width (4, 8, 16)")
		iters      = flag.Int("iters", 100, "benchmark loop iterations")
		perfectBP  = flag.Bool("perfect-bp", false, "oracle branch prediction")
		perfectMem = flag.Bool("perfect-mem", false, "perfect caches")
		trace      = flag.Int("trace", 0, "print a pipeline trace of the first N instructions")
		konata     = flag.String("konata", "", "write a Kanata pipeline log (for the Konata viewer) to this file")
		configPath = flag.String("config", "", "replay a crash artifact (JSON written by braidbench -crashdir)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the simulation (0: none)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		p   *isa.Program
		cfg uarch.Config
	)
	if *configPath != "" {
		art, prog, err := experiments.ReadCrashArtifact(*configPath)
		if err != nil {
			fatal(err)
		}
		p, cfg = prog, art.Config
		if err := cfg.Validate(); err != nil {
			fatal(fmt.Errorf("crash artifact carries an invalid configuration: %w", err))
		}
		fmt.Fprintf(os.Stderr, "braidsim: replaying %s (%s braided=%v), original fault at cycle %d: %s\n",
			art.Bench, cfg.Core, art.Braided, art.Cycle, art.Panic)
	} else {
		var err error
		p, err = load(*bench, *kernel, *iters, flag.Args())
		if err != nil {
			fatal(err)
		}
		switch *core {
		case "inorder":
			cfg = uarch.InOrderConfig(*width)
		case "dep":
			cfg = uarch.DepSteerConfig(*width)
		case "ooo":
			cfg = uarch.OutOfOrderConfig(*width)
		case "braid":
			cfg = uarch.BraidConfig(*width)
			if p.Braided() {
				fmt.Fprintln(os.Stderr, "braidsim: input is already braided")
				break
			}
			res, err := braid.Compile(p, braid.Options{})
			if err != nil {
				fatal(fmt.Errorf("braiding: %w", err))
			}
			fmt.Fprintf(os.Stderr, "braidsim: braided %d instructions into %d braids\n",
				len(res.Prog.Instrs), len(res.Braids))
			p = res.Prog
		default:
			fatal(fmt.Errorf("unknown core %q", *core))
		}
		cfg.PerfectBP = *perfectBP
		cfg.Mem.Perfect = *perfectMem
	}

	logs := &pipelineLogs{prog: p}
	if *trace > 0 {
		logs.startTrace(os.Stdout, *trace)
	}
	if *konata != "" {
		f, err := os.Create(*konata)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		logs.startKonata(f, 100000)
	}
	// -timeout budgets the simulation alone, its set-up included, not the
	// loading and braiding above.
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	st, err := uarch.SimulateObserved(ctx, p, cfg, logs.observer())
	// The logs go out even after a failed run: they show how it got there.
	logErr := logs.flush()
	if err != nil {
		var sf *uarch.SimFault
		switch {
		case errors.As(err, &sf):
			fmt.Fprintf(os.Stderr, "braidsim: simulator fault at cycle %d: %v\n", sf.Cycle, sf.Panic)
			if len(sf.Stack) > 0 {
				fmt.Fprintf(os.Stderr, "%s", sf.Stack)
			}
			os.Exit(2)
		case errors.Is(err, uarch.ErrCycleLimit):
			fmt.Fprintf(os.Stderr, "braidsim: %v\n", err)
			os.Exit(3)
		case errors.Is(err, uarch.ErrTimeout):
			fmt.Fprintf(os.Stderr, "braidsim: timed out after %v: %v\n", *timeout, err)
			os.Exit(4)
		case errors.Is(err, uarch.ErrCanceled):
			fmt.Fprintf(os.Stderr, "braidsim: interrupted: %v\n", err)
			os.Exit(130)
		}
		fatal(err)
	}
	if logErr != nil {
		fatal(logErr)
	}
	fmt.Printf("core            %s, %d-wide\n", cfg.Core, cfg.IssueWidth)
	fmt.Printf("cycles          %d\n", st.Cycles)
	fmt.Printf("retired         %d\n", st.Retired)
	fmt.Printf("IPC             %.3f\n", st.IPC())
	fmt.Printf("cond branches   %d (%.2f%% mispredicted)\n", st.CondBranches, 100*st.MispredictRate())
	fmt.Printf("loads/stores    %d / %d\n", st.Loads, st.StoreCount)
	fmt.Printf("avg in flight   %.1f\n", st.MeanROBOccupancy())
	fmt.Printf("idle cycles     %d (%.1f%%)\n", st.IdleCycles, 100*float64(st.IdleCycles)/float64(st.Cycles))
	fmt.Printf("fetch stalls    %d cycles on mispredictions\n", st.FetchStallCycles)
	fmt.Printf("RF entry stalls %d, read-port stalls %d, write-port stalls %d, bypass denied %d, RF peak %d\n",
		st.RFEntryStalls, st.PortStalls, st.WritePortStalls, st.BypassDenied, st.RFPeak)
	return
}

func load(bench, kernel string, iters int, args []string) (*isa.Program, error) {
	switch {
	case bench != "":
		prof, ok := workload.ProfileByName(bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", bench)
		}
		return workload.Generate(prof, iters)
	case kernel != "":
		p, ok := workload.KernelByName(kernel)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", kernel)
		}
		return p, nil
	case len(args) == 1:
		if strings.HasSuffix(args[0], ".brd") {
			f, err := os.Open(args[0])
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return isa.ReadImage(f)
		}
		src, err := os.ReadFile(args[0])
		if err != nil {
			return nil, err
		}
		return asm.Parse(string(src))
	}
	return nil, fmt.Errorf("need an input: a .s file, -bench, or -kernel")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "braidsim: %v\n", err)
	os.Exit(1)
}
