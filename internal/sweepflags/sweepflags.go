// Package sweepflags is the command line the sweep tools share: the suite
// flags (-dyn -j -sample -checkpoint -resume -crashdir -sim-timeout) and
// the fleet flags (-remote -hedge -remote-verify -fallback -probe), and
// what they imply, from preparing the suite to the exit status. Progress
// goes to stderr under the tool's name; bench/ and CI read some of those
// lines, so their wording is fixed.
package sweepflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"braid/internal/experiments"
	"braid/internal/remote"
	"braid/internal/uarch"
)

// Suite holds the suite and fleet flags.
type Suite struct {
	Dyn        uint64
	Jobs       int
	sample     string
	checkpoint string
	resume     bool
	crashDir   string
	simTimeout time.Duration
	remote     string
	hedge      bool
	verify     int
	fallback   string
	probe      time.Duration
}

// AddSuite registers the suite and fleet flags on fs.
func AddSuite(fs *flag.FlagSet) *Suite {
	s := &Suite{}
	fs.Uint64Var(&s.Dyn, "dyn", 30000, "dynamic instructions per benchmark")
	fs.IntVar(&s.Jobs, "j", runtime.GOMAXPROCS(0), "parallel simulations (0: one per processor)")
	fs.StringVar(&s.sample, "sample", "", "interval sampling geometry period:detail[:warmup]; empty runs exact")
	fs.StringVar(&s.checkpoint, "checkpoint", "", "append every completed simulation to this JSONL file")
	fs.BoolVar(&s.resume, "resume", false, "reload finished simulations from -checkpoint before running")
	fs.StringVar(&s.crashDir, "crashdir", "crashes", "directory for simulator-fault repro artifacts")
	fs.DurationVar(&s.simTimeout, "sim-timeout", 0, "wall-clock budget per simulation (0: none)")
	fs.StringVar(&s.remote, "remote", "", "comma-separated braidd base URLs; simulations run on these backends")
	fs.BoolVar(&s.hedge, "hedge", false, "hedge slow remote requests onto a second backend (needs -remote)")
	fs.IntVar(&s.verify, "remote-verify", 0, "cross-check sampled remote results against local simulation, ~1 in N points (needs -remote; 0: off)")
	fs.StringVar(&s.fallback, "fallback", "fail", "when every backend attempt fails: 'local' simulates in-process, 'fail' contains the point (needs -remote)")
	fs.DurationVar(&s.probe, "probe", 0, "background health-probe interval; ejects backends that fail /healthz or the known-answer canary (needs -remote; 0: off)")
	return s
}

// check rejects a flag the other flags would leave without effect.
func (s *Suite) check() error {
	if _, err := remote.ParseFallback(s.fallback); err != nil {
		return fmt.Errorf("-fallback: %w", err)
	}
	if s.resume && s.checkpoint == "" {
		return errors.New("-resume needs -checkpoint")
	}
	if s.remote != "" {
		return nil
	}
	switch {
	case s.hedge:
		return errors.New("-hedge needs -remote")
	case s.verify > 0:
		return errors.New("-remote-verify needs -remote")
	case s.probe > 0:
		return errors.New("-probe needs -remote")
	case s.fallback == "local":
		return errors.New("-fallback local needs -remote")
	}
	return nil
}

// Sweep is a prepared suite and what its flags attach to it.
type Sweep struct {
	*experiments.Workloads
	flags *Suite
	tool  string
	pool  *remote.Pool
}

// Load rejects a flag the others would leave without effect, prepares the
// suite at -dyn with -j workers under ctx, which stays the base context of
// every simulation, and applies -sim-timeout, -crashdir and -sample.
func (s *Suite) Load(ctx context.Context, tool string) (*Sweep, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	sp, err := uarch.ParseSampling(s.sample)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: preparing 26-benchmark suite (~%d dynamic instructions each, %d workers)\n",
		tool, s.Dyn, s.Jobs)
	w, err := experiments.LoadSuiteCtx(ctx, s.Dyn, s.Jobs)
	if err != nil {
		return nil, err
	}
	w.SetTimeout(s.simTimeout)
	w.SetCrashDir(s.crashDir)
	if sp.Enabled() {
		w.SetSampling(sp)
		fmt.Fprintf(os.Stderr, "%s: interval sampling %s (IPC values are estimates)\n", tool, sp)
	}
	return &Sweep{Workloads: w, flags: s, tool: tool}, nil
}

// Attach sends the sweep's simulations to the -remote pool and opens the
// -checkpoint journal, restoring its points with -resume.
func (sw *Sweep) Attach(ctx context.Context) error {
	if err := sw.connect(ctx); err != nil {
		return err
	}
	s := sw.flags
	if s.checkpoint == "" {
		return nil
	}
	restored, err := sw.OpenCheckpoint(s.checkpoint, s.resume)
	if err != nil {
		return err
	}
	if s.resume {
		fmt.Fprintf(os.Stderr, "%s: resumed %d finished simulations from %s\n", sw.tool, restored, s.checkpoint)
	}
	return nil
}

// connect installs the pool of the -remote backends as the sweep's runner.
// It requires one live backend, names the unreachable ones on stderr, and
// runs the -probe prober until ctx ends.
func (sw *Sweep) connect(ctx context.Context) error {
	s := sw.flags
	if s.remote == "" {
		return nil
	}
	fb, _ := remote.ParseFallback(s.fallback) // checked by Load
	pool, err := remote.NewPool(remote.Options{
		Backends:    strings.Split(s.remote, ","),
		Hedge:       s.hedge,
		VerifyEvery: s.verify,
		TimeoutMS:   s.simTimeout.Milliseconds(),
		Fallback:    fb,
	})
	if err != nil {
		return err
	}
	down, err := pool.Ping(ctx)
	if len(down) > 0 {
		fmt.Fprintf(os.Stderr, "%s: unreachable backends (will fail over): %s\n", sw.tool, strings.Join(down, ","))
	}
	if err != nil {
		return err
	}
	if s.probe > 0 {
		pool.StartProber(ctx, s.probe)
	}
	sw.pool = pool
	sw.SetRunner(pool)
	fmt.Fprintf(os.Stderr, "%s: remote execution over %d backend(s)\n", sw.tool, len(pool.Backends()))
	return nil
}

// Fatal ends the sweep on err. An interrupt says how to resume, naming the
// step it stopped when during is not empty, closes the checkpoint and exits
// 130; any other error exits 1.
func (sw *Sweep) Fatal(err error, during string) {
	if status(err) != 130 {
		Fatal(sw.tool, err)
	}
	msg := sw.tool + ": interrupted"
	if during != "" {
		msg += " during " + during
	}
	if sw.flags.checkpoint != "" {
		msg += fmt.Sprintf("; rerun with -checkpoint %s -resume to continue", sw.flags.checkpoint)
	}
	fmt.Fprintln(os.Stderr, msg)
	sw.CloseCheckpoint()
	os.Exit(130)
}

// Finish reports a sweep that ran to the end on stderr: the count of
// contained failures followed by heading (say "design points failed and
// were skipped:") and the failures, then summary, then the pool's counters.
// It closes the checkpoint and returns the first error appending to it.
func (sw *Sweep) Finish(heading, summary string) error {
	if failures := sw.Failures(); len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d %s\n", sw.tool, len(failures), heading)
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "%s:   %s\n", sw.tool, f)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %s\n", sw.tool, summary)
	if sw.pool != nil {
		fmt.Fprintf(os.Stderr, "%s: remote pool: %s\n", sw.tool, sw.pool)
	}
	return sw.CloseCheckpoint()
}

// Fatal reports err under the tool's name and exits with its status.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(status(err))
}

// status is the exit status for err: 130 when an interrupt caused it, also
// during suite preparation, and 1 otherwise.
func status(err error) int {
	if errors.Is(err, uarch.ErrCanceled) || errors.Is(err, context.Canceled) {
		return 130
	}
	return 1
}
