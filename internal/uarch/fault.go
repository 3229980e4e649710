package uarch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"

	"braid/internal/isa"
)

// Typed simulation-failure sentinels. Callers distinguish them with
// errors.Is and degrade gracefully — skip the point, keep the sweep —
// instead of aborting a whole evaluation.
var (
	// ErrCycleLimit marks a simulation that exhausted Config.MaxCycles:
	// either a wedged machine (a simulator bug) or a budget too small for
	// the program.
	ErrCycleLimit = errors.New("cycle limit exceeded")

	// ErrTimeout marks a simulation that hit its wall-clock deadline
	// (context.DeadlineExceeded on the run's context).
	ErrTimeout = errors.New("simulation deadline exceeded")

	// ErrCanceled marks a simulation stopped by whole-suite cancellation
	// (context.Canceled on the run's context — e.g. Ctrl-C).
	ErrCanceled = errors.New("simulation canceled")
)

// SimFault is a contained simulator failure: a panic raised by the engine,
// its paranoid checker or a retire observer during a run, converted into an
// error so one corrupt simulation cannot kill a whole sweep. It carries
// everything a crash artifact needs to replay the failure.
type SimFault struct {
	Core    CoreKind
	Program string
	Cycle   uint64
	Fetched uint64
	Retired uint64
	Panic   any
	Stack   []byte
}

func (f *SimFault) Error() string {
	return fmt.Sprintf("uarch: simulator fault: %s on %q at cycle %d (fetched %d, retired %d): %v",
		f.Core, f.Program, f.Cycle, f.Fetched, f.Retired, f.Panic)
}

// ctxCheckInterval bounds how many simulated cycles pass between context
// polls. The budget is counted in cycles, not step calls: a single step can
// fast-forward an arbitrarily long idle stretch, so a step-counted interval
// would let one leap carry the machine far past a poll. The first iteration
// always polls, so an already-expired deadline or canceled context fails
// fast.
const ctxCheckInterval = 256

// run steps m from where it stands until the program completes or stop
// instructions have retired, and reports whether it completed. It is the one
// cycle loop: an exact run calls it once with no stop, a sampled interval
// once for its warm-up and once for its measured window. A machine at
// MaxCycles fails with ErrCycleLimit, and a canceled or expired ctx, polled
// every ctxCheckInterval cycles, with ErrCanceled or ErrTimeout.
func (m *Machine) run(ctx context.Context, stop uint64) (done bool, err error) {
	poll := ctx.Done()
	var nextPoll uint64
	for !done && m.stats.Retired < stop {
		if m.cycle >= m.cfg.MaxCycles {
			return false, fmt.Errorf("uarch: %s on %q %w: %d cycles (fetched %d, retired %d, %d in flight — wedged machine or budget too small)",
				m.cfg.Core, m.prog.Name, ErrCycleLimit, m.cfg.MaxCycles, m.stats.Fetched, m.stats.Retired, m.rob.len())
		}
		if poll != nil && m.cycle >= nextPoll {
			select {
			case <-poll:
				return false, m.ctxErr(ctx)
			default:
			}
			nextPoll = m.cycle + ctxCheckInterval
		}
		done = m.step()
	}
	m.stats.Cycles = m.cycle
	return done, nil
}

// ctxErr converts a context failure into the matching typed sentinel,
// annotated with where the simulation stopped.
func (m *Machine) ctxErr(ctx context.Context) error {
	sentinel := ErrCanceled
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		sentinel = ErrTimeout
	}
	return fmt.Errorf("uarch: %s on %q %w at cycle %d (fetched %d, retired %d)",
		m.cfg.Core, m.prog.Name, sentinel, m.cycle, m.stats.Fetched, m.stats.Retired)
}

// SimulateObserved runs program p on cfg under ctx and calls onRetire, unless
// it is nil, for every instruction as it retires, in program order. Every
// exact run goes through it: the machine comes from recycled memory and goes
// back to it (DESIGN.md §5), a panic is contained as a *SimFault, and a
// canceled or expired ctx stops the run with an error wrapping ErrCanceled
// or ErrTimeout. onRetire only observes: Stats are bit-identical with and
// without one.
func SimulateObserved(ctx context.Context, p *isa.Program, cfg Config, onRetire func(RetireEvent)) (st *Stats, err error) {
	m, err := acquire(p, cfg)
	if err != nil {
		return nil, err
	}
	m.onRetire = onRetire
	defer func() {
		if r := recover(); r != nil {
			// A panic may have left m half updated: it is not recycled.
			err = &SimFault{
				Core:    cfg.Core,
				Program: p.Name,
				Cycle:   m.cycle,
				Fetched: m.stats.Fetched,
				Retired: m.stats.Retired,
				Panic:   r,
				Stack:   debug.Stack(),
			}
		}
	}()
	_, err = m.run(ctx, math.MaxUint64)
	return m.release(err)
}

// SimulateChecked is SimulateObserved without an observer.
func SimulateChecked(ctx context.Context, p *isa.Program, cfg Config) (*Stats, error) {
	return SimulateObserved(ctx, p, cfg, nil)
}

// faultHook is the test seam for corrupting the machine mid-run (see
// fault_test.go): from cycle at on, step calls apply just before the paranoid
// checker, once per cycle, until apply reports that it corrupted its target.
// Only a test can set Config.fault, so the product never carries one.
type faultHook struct {
	at    uint64
	apply func(*Machine) bool
}
