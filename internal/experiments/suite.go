package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"braid/internal/braid"
	"braid/internal/interp"
	"braid/internal/isa"
	"braid/internal/journal"
	"braid/internal/uarch"
	"braid/internal/workload"
)

// Bench is one prepared benchmark: the generated program and its braided
// translation. Its characterization is computed on first use (Characterize).
type Bench struct {
	Name    string
	FP      bool
	Profile workload.Profile
	Orig    *isa.Program
	Braided *isa.Program
	Compile *braid.Result

	charOnce sync.Once
	char     *Characterization
	charErr  error
}

// Characterization is what the paper's §1 and Tables 1-3 report of one
// benchmark: profiles of its two programs run to the end.
type Characterization struct {
	Braids braid.Stats        // execution-weighted Tables 1-3 statistics of the braided program
	Values *interp.ValueStats // §1 fanout/lifetime statistics of the original program
}

// Characterize interprets both programs to the end on its first call and
// returns the same result on every later one. Safe for concurrent use.
func (b *Bench) Characterize() (*Characterization, error) {
	b.charOnce.Do(func() { b.char, b.charErr = characterize(b) })
	return b.char, b.charErr
}

// characterize runs the two interpreter passes: the braided program under
// braid.DynamicStats, and the original under interp.Characterize.
func characterize(b *Bench) (*Characterization, error) {
	ds := braid.NewDynamicStats(b.Compile)
	if _, err := interp.New(b.Braided).Run(50_000_000, func(si *interp.StepInfo) { ds.OnRetire(si.Index) }); err != nil {
		return nil, err
	}
	vs, err := interp.Characterize(b.Orig, 50_000_000)
	if err != nil {
		return nil, err
	}
	return &Characterization{Braids: ds.Stats(), Values: vs}, nil
}

// program returns the braid-compiled binary if braided, else the original.
func (b *Bench) program(braided bool) *isa.Program {
	if braided {
		return b.Braided
	}
	return b.Orig
}

// Workloads is the prepared suite plus a simulation cache. The cache is safe
// for concurrent use and duplicate-suppressing: when several goroutines ask
// for the same (benchmark, braided, config) point, exactly one runs the
// simulation and the rest wait for its result.
//
// The suite is fault-tolerant: simulations run through uarch.SimulateChecked
// under the suite context (LoadSuiteCtx) with an optional per-simulation
// deadline (SetTimeout), engine panics surface as contained *uarch.SimFault
// errors with a crash artifact (SetCrashDir), transient failures are not
// memoized (the next IPC call reruns the point), and completed points can be
// persisted to an append-only checkpoint (OpenCheckpoint) and reloaded
// across processes.
type Workloads struct {
	Benches []*Bench

	jobs int // worker-pool width for IPCAll and EachBench

	ctx        context.Context // base context for simulations (nil: Background)
	simTimeout time.Duration   // per-simulation wall-clock deadline (0: none)
	crashDir   string          // where *SimFault repro artifacts land ("" : off)
	runner     Runner          // simulation executor (nil: in-process uarch)
	sampling   uarch.Sampling  // interval sampling geometry (zero: exact)

	mu   sync.Mutex
	memo map[memoKey]*memoCell

	ckptMu    sync.Mutex
	ckpt      *journal.Journal
	ckptProgs map[binary]string // program digests the records carry

	failMu sync.Mutex
	failed []PointFailure

	simRuns     atomic.Uint64 // simulations actually executed (not memo hits)
	simCycles   atomic.Uint64 // machine cycles across executed simulations
	simInstrs   atomic.Uint64 // retired instructions across executed simulations
	simDetailed atomic.Uint64 // ... of which ran on the detailed engine
	simFFwd     atomic.Uint64 // ... of which were functionally fast-forwarded
}

type memoKey struct {
	bench    string
	braided  bool
	cfg      uarch.Config
	sampling uarch.Sampling // zero for exact runs: sampled results never alias exact ones
}

// memoCell is one in-flight or finished simulation; done is closed when ipc
// and err are final (a per-key latch, so duplicates wait instead of re-run).
type memoCell struct {
	done chan struct{}
	ipc  float64
	err  error
}

// Point names one simulation of the suite: a benchmark, which binary to run,
// and the machine configuration.
type Point struct {
	Bench   *Bench
	Braided bool
	Cfg     uarch.Config
}

// defaultJobs resolves a worker count: n if positive, else all processors.
func defaultJobs(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetTimeout bounds each individual simulation's wall-clock time; an expired
// deadline surfaces as an error wrapping uarch.ErrTimeout and is treated as
// transient (not memoized). Zero disables the deadline.
func (w *Workloads) SetTimeout(d time.Duration) { w.simTimeout = d }

// SetCrashDir selects where *uarch.SimFault repro artifacts (program image +
// config JSON) are written; empty disables artifact writing. The directory
// is created on first fault.
func (w *Workloads) SetCrashDir(dir string) { w.crashDir = dir }

// Runner executes one simulation in place of the in-process simulator;
// installing a remote pool (internal/remote) makes every memoized point and
// ablation run execute on braidd backends instead. A zero Sampling means an
// exact run, whose estimate is nil. A Runner must be deterministic and must
// report failures in the local error taxonomy (*uarch.SimFault,
// ErrCycleLimit, ErrTimeout, ErrCanceled) so memoization, checkpointing, and
// Failures() accounting behave identically either way.
type Runner interface {
	SimulateSampled(ctx context.Context, p *isa.Program, cfg uarch.Config, sp uarch.Sampling) (*uarch.Stats, *uarch.SampleEstimate, error)
}

// SetRunner installs the simulation executor; nil restores the in-process
// simulator. Set it before starting a sweep, not during one.
func (w *Workloads) SetRunner(r Runner) { w.runner = r }

// SetSampling selects interval sampling for every subsequent simulation
// (zero value: exact). Sampled and exact results occupy disjoint memo and
// checkpoint keyspaces, so switching modes never aliases results. Set it
// before starting a sweep, not during one.
func (w *Workloads) SetSampling(sp uarch.Sampling) { w.sampling = sp }

// Sampling reports the suite's sampling geometry (zero when exact).
func (w *Workloads) Sampling() uarch.Sampling { return w.sampling }

// simulate runs one point under the suite's sampling geometry through the
// installed Runner, or in-process without one.
func (w *Workloads) simulate(ctx context.Context, p *isa.Program, cfg uarch.Config) (*uarch.Stats, *uarch.SampleEstimate, error) {
	if w.runner != nil {
		return w.runner.SimulateSampled(ctx, p, cfg, w.sampling)
	}
	return uarch.SimulateSampled(ctx, p, cfg, w.sampling)
}

// baseCtx resolves the suite context, defaulting to Background.
func (w *Workloads) baseCtx() context.Context {
	if w.ctx != nil {
		return w.ctx
	}
	return context.Background()
}

// SimRuns reports how many simulations actually ran (memo misses); used by
// tests to assert duplicate suppression.
func (w *Workloads) SimRuns() uint64 { return w.simRuns.Load() }

// SimInstrs reports the total instructions retired across the simulations
// that actually ran; together with wall-clock time it yields simulator
// throughput (instructions per second).
func (w *Workloads) SimInstrs() uint64 { return w.simInstrs.Load() }

// SimCycles reports the total machine cycles across the simulations that
// actually ran.
func (w *Workloads) SimCycles() uint64 { return w.simCycles.Load() }

// SimDetailedInstrs reports how many of SimInstrs ran on the detailed
// cycle-level engine; for exact runs that is all of them.
func (w *Workloads) SimDetailedInstrs() uint64 { return w.simDetailed.Load() }

// SimFFwdInstrs reports how many of SimInstrs were functionally
// fast-forwarded by sampled runs (zero when exact).
func (w *Workloads) SimFFwdInstrs() uint64 { return w.simFFwd.Load() }

// LoadSuite generates and braids all 26 benchmarks, each calibrated to about
// dynTarget dynamic instructions, preparing one benchmark per processor at a
// time. It interprets only each benchmark's short calibration probe; the
// full programs are interpreted on first use of their characterization.
func LoadSuite(dynTarget uint64) (*Workloads, error) {
	return LoadSuiteCtx(context.Background(), dynTarget, 0)
}

// LoadSuiteCtx is LoadSuite under a context with an explicit worker-pool
// width (jobs <= 0 means one worker per processor). The suite order is
// deterministic — workload.Profiles order — regardless of which preparation
// finishes first. Canceling ctx stops the preparation between benchmarks
// (each in-flight preparation still finishes); ctx is also the base context
// every simulation of the suite runs under, so canceling it (e.g. from a
// Ctrl-C signal handler) stops sweeps too, with in-flight simulations
// returning errors wrapping uarch.ErrCanceled, and stops the
// characterization experiments between benchmarks.
func LoadSuiteCtx(ctx context.Context, dynTarget uint64, jobs int) (*Workloads, error) {
	if dynTarget < 1000 {
		return nil, fmt.Errorf("experiments: dynTarget %d too small", dynTarget)
	}
	w := &Workloads{memo: map[memoKey]*memoCell{}, jobs: defaultJobs(jobs), ctx: ctx}
	benches, err := parallelMap(w.jobs, workload.Profiles(), func(prof workload.Profile) (*Bench, error) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w: suite preparation stopped", prof.Name, uarch.ErrCanceled)
		}
		b, err := prepare(prof, dynTarget)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", prof.Name, err)
		}
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	w.Benches = benches
	return w, nil
}

// parallelMap applies fn to every item through a bounded worker pool and
// returns the results in input order. The first error wins; remaining items
// still run (workers drain the queue) but their results are discarded.
// Workers are panic-isolated: a panic in fn becomes that item's error
// instead of crashing the process.
func parallelMap[T, R any](jobs int, items []T, fn func(T) (R, error)) ([]R, error) {
	run := func(it T) (r R, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("experiments: worker panic: %v\n%s", p, debug.Stack())
			}
		}()
		return fn(it)
	}
	if jobs > len(items) {
		jobs = len(items)
	}
	if jobs <= 1 {
		out := make([]R, len(items))
		for i, it := range items {
			r, err := run(it)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	out := make([]R, len(items))
	work := make(chan int)
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r, err := run(items[i])
				if err != nil {
					errOnce.Do(func() { firstEr = err })
					continue
				}
				out[i] = r
			}
		}()
	}
	for i := range items {
		work <- i
	}
	close(work)
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return out, nil
}

func prepare(prof workload.Profile, dynTarget uint64) (*Bench, error) {
	// Calibrate the iteration count with a short probe run.
	const probeIters = 8
	probe, err := workload.Generate(prof, probeIters)
	if err != nil {
		return nil, err
	}
	fs, err := interp.RunProgram(probe, 10_000_000)
	if err != nil {
		return nil, err
	}
	perIter := fs.Steps / probeIters
	if perIter == 0 {
		perIter = 1
	}
	iters := int(dynTarget / perIter)
	if iters < 4 {
		iters = 4
	}
	if iters > isa.ImmMax {
		iters = isa.ImmMax
	}

	orig, err := workload.Generate(prof, iters)
	if err != nil {
		return nil, err
	}
	res, err := braid.Compile(orig, braid.Options{})
	if err != nil {
		return nil, err
	}
	return &Bench{
		Name:    prof.Name,
		FP:      prof.FP,
		Profile: prof,
		Orig:    orig,
		Braided: res.Prog,
		Compile: res,
	}, nil
}

// characterizeAll returns every benchmark's characterization in suite
// order, computing the missing ones through the worker pool. Canceling the
// suite context stops it between benchmarks with an error wrapping
// uarch.ErrCanceled.
func (w *Workloads) characterizeAll() ([]*Characterization, error) {
	ctx := w.baseCtx()
	return parallelMap(w.jobs, w.Benches, func(b *Bench) (*Characterization, error) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w: characterization stopped", b.Name, uarch.ErrCanceled)
		}
		c, err := b.Characterize()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
		}
		return c, nil
	})
}

// IPC simulates one benchmark under cfg (braided selects the braid-compiled
// binary) and caches the result. Safe for concurrent use: the first caller
// of a point runs the simulation, concurrent duplicates block on its latch.
// Engine panics come back as contained *uarch.SimFault errors; transient
// failures (timeout, cancellation) are not memoized, so a later call may
// retry the point.
func (w *Workloads) IPC(b *Bench, braided bool, cfg uarch.Config) (float64, error) {
	key := memoKey{b.Name, braided, cfg, w.sampling}
	w.mu.Lock()
	if c, ok := w.memo[key]; ok {
		w.mu.Unlock()
		<-c.done
		return c.ipc, c.err
	}
	c := &memoCell{done: make(chan struct{})}
	w.memo[key] = c
	w.mu.Unlock()
	return w.runPoint(key, c, b, braided, cfg)
}

// runPoint executes the simulation an IPC call claimed and publishes the
// result through its latch. Transient errors evict the cell afterwards —
// waiters that already joined the latch still see the error, but the key is
// not poisoned for the process lifetime.
func (w *Workloads) runPoint(key memoKey, c *memoCell, b *Bench, braided bool, cfg uarch.Config) (float64, error) {
	w.simRuns.Add(1)
	ctx := w.baseCtx()
	cancel := func() {}
	if w.simTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, w.simTimeout)
	}
	st, est, err := w.simulate(ctx, b.program(braided), cfg)
	cancel()
	if err != nil {
		// PointFailure.String prints the label; callers get it in c.err.
		w.noteFailure(b, braided, cfg, err)
		c.err = fmt.Errorf("%s (%s braided=%v): %w", b.Name, cfg.Core, braided, err)
	} else {
		c.ipc = st.IPC()
		w.simInstrs.Add(st.Retired)
		w.simCycles.Add(st.Cycles)
		if est != nil && !est.Exact {
			w.simDetailed.Add(est.DetailedInstrs)
			w.simFFwd.Add(est.FFwdInstrs)
		} else {
			w.simDetailed.Add(st.Retired)
		}
		w.checkpointPoint(key, c.ipc)
	}
	close(c.done)
	if c.err != nil && Transient(c.err) {
		w.mu.Lock()
		if w.memo[key] == c {
			delete(w.memo, key)
		}
		w.mu.Unlock()
	}
	return c.ipc, c.err
}

// IPCAll simulates every point through the bounded worker pool and returns
// the IPC for each. Duplicate points (and points already memoized) cost one
// simulation total. The map is keyed by the exact Point values passed in.
//
// Contained failures — a simulator fault, an exhausted cycle budget, a
// per-simulation timeout — degrade gracefully: the failed point is omitted
// from the map (and recorded in Failures()) while the rest of the sweep
// completes. Only cancellation and infrastructure errors abort the batch.
func (w *Workloads) IPCAll(points []Point) (map[Point]float64, error) {
	type outcome struct {
		ipc  float64
		skip bool
	}
	outs, err := parallelMap(w.jobs, points, func(pt Point) (outcome, error) {
		v, err := w.IPC(pt.Bench, pt.Braided, pt.Cfg)
		if err != nil {
			if Contained(err) {
				return outcome{skip: true}, nil
			}
			return outcome{}, err
		}
		return outcome{ipc: v}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[Point]float64, len(points))
	for i, pt := range points {
		if !outs[i].skip {
			out[pt] = outs[i].ipc
		}
	}
	return out, nil
}

// Simulate runs one program/configuration through the suite's fault-tolerant
// path — checked entry point, suite context, per-simulation deadline — with
// no memoization. Ablations use it for compile-variant simulations whose
// configs are never repeated. Like IPC, it executes through the installed
// Runner, so it distributes too.
func (w *Workloads) Simulate(p *isa.Program, cfg uarch.Config) (*uarch.Stats, error) {
	ctx := w.baseCtx()
	cancel := func() {}
	if w.simTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, w.simTimeout)
	}
	defer cancel()
	st, _, err := w.simulate(ctx, p, cfg)
	return st, err
}

// EachBench runs fn over every benchmark through the bounded worker pool and
// applies the returned record closures in suite order, so Result grids come
// out deterministic no matter which benchmark finishes first.
func (w *Workloads) EachBench(fn func(b *Bench) (func(), error)) error {
	records, err := parallelMap(w.jobs, w.Benches, fn)
	if err != nil {
		return err
	}
	for _, rec := range records {
		rec()
	}
	return nil
}
