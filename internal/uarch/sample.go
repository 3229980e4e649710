package uarch

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"strconv"
	"strings"

	"braid/internal/isa"
	"braid/internal/mem"
)

// Sampled simulation (SMARTS-style systematic interval sampling). The
// simulator is functionally directed, so the dynamic instruction stream is a
// precomputed trace shared by every configuration; sampling exploits that by
// replaying most of the trace functionally — touching the instruction and
// data caches so their state stays warm, but building no pipeline state —
// and running the detailed cycle-level engine only on periodic measurement
// intervals. Branch prediction needs no warming: every run reads the
// program's shared mispredict set (replay.go). Architectural execution is
// exact either way (same trace), so instruction counts and final
// architectural state are identical to exact mode; only timing is estimated,
// with a confidence interval derived from the per-interval CPI variance.

// Sampling configures interval sampling. Every Period instructions the
// engine runs a detailed interval: Warmup instructions to rebuild pipeline
// and scheduler state (measured stats discarded), then Detail instructions
// whose cycles are measured. Everything else fast-forwards functionally.
// The zero value disables sampling (exact simulation).
type Sampling struct {
	Period uint64 `json:"period"`
	Detail uint64 `json:"detail"`
	Warmup uint64 `json:"warmup"`
}

// Enabled reports whether sampling is requested (non-zero value).
func (s Sampling) Enabled() bool { return s != Sampling{} }

// Validate checks the interval geometry: an enabled configuration needs a
// positive period and detail length, and the detailed window (warm-up plus
// measurement) must leave room to fast-forward — Warmup+Detail >= Period
// (which includes every Period <= Detail) would make the "sampled" run
// simulate everything in detail, which exact mode already does better.
func (s Sampling) Validate() error {
	if !s.Enabled() {
		return nil
	}
	if s.Period == 0 || s.Detail == 0 {
		return fmt.Errorf("uarch: sampling %s needs a positive period and detail length", s)
	}
	// Compared without summing: Warmup+Detail can wrap past zero.
	if s.Warmup >= s.Period || s.Detail >= s.Period-s.Warmup {
		return fmt.Errorf("uarch: sampling %s leaves nothing to fast-forward (warmup %d + detail %d >= period %d); use exact simulation instead",
			s, s.Warmup, s.Detail, s.Period)
	}
	return nil
}

// String renders the flag form, "period:detail:warmup".
func (s Sampling) String() string {
	return fmt.Sprintf("%d:%d:%d", s.Period, s.Detail, s.Warmup)
}

// ParseSampling parses a "period:detail:warmup" specification (the -sample
// flag form); warmup may be omitted. An empty string is the disabled zero
// value.
func ParseSampling(spec string) (Sampling, error) {
	if spec == "" {
		return Sampling{}, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return Sampling{}, fmt.Errorf("uarch: sampling spec %q is not period:detail[:warmup]", spec)
	}
	var vals [3]uint64
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return Sampling{}, fmt.Errorf("uarch: sampling spec %q: %v", spec, err)
		}
		vals[i] = v
	}
	s := Sampling{Period: vals[0], Detail: vals[1], Warmup: vals[2]}
	if err := s.Validate(); err != nil {
		return Sampling{}, err
	}
	return s, nil
}

// SampleEstimate reports how a sampled run's Stats were estimated. It lives
// outside Stats so exact-mode results — including the golden-stats rendering
// of the whole Stats struct — are byte-identical with sampling code linked
// in.
type SampleEstimate struct {
	// Intervals is the number of measurement intervals that contributed.
	Intervals int `json:"intervals"`
	// DetailedInstrs counts instructions the detailed engine fetched
	// (warm-up, measured window, and the in-flight tail at interval end);
	// FFwdInstrs counts the functionally fast-forwarded rest. They sum to
	// the program's retired instructions.
	DetailedInstrs uint64 `json:"detailed_instructions"`
	FFwdInstrs     uint64 `json:"fastforward_instructions"`
	// MeasuredInstrs is the subset of DetailedInstrs inside measurement
	// windows (warm-up excluded) that the CPI estimate is built from.
	MeasuredInstrs uint64 `json:"measured_instructions"`
	// CPI is the ratio estimate sum(cycles_i)/sum(instrs_i) over the
	// measurement windows; Stats.Cycles is CPI scaled to the full run.
	CPI float64 `json:"cpi"`
	// IPCRelCI is the half-width of the 95% confidence interval on IPC,
	// relative to the estimate (0.02 means IPC ± 2%). Zero when fewer
	// than two intervals were measured.
	IPCRelCI float64 `json:"ipc_rel_ci95"`
	// Exact marks a degenerate fall-back: the program was shorter than
	// one sampling period and ran exactly; the Stats are not estimates.
	Exact bool `json:"exact,omitempty"`
}

// IPC is the estimated instructions per cycle.
func (e *SampleEstimate) IPC() float64 {
	if e.CPI == 0 {
		return 0
	}
	return 1 / e.CPI
}

// ffCheckInterval bounds how many fast-forwarded instructions pass between
// context polls, so cancellation lands promptly even mid-leap.
const ffCheckInterval = 8192

// SimulateSampled runs program p under cfg with interval sampling sp,
// returning estimated Stats and the estimate's provenance. Like
// SimulateChecked it contains engine panics as *SimFault and honors ctx
// cancellation/deadlines (ErrCanceled/ErrTimeout). A disabled sp runs exact
// with a nil estimate; a program shorter than one period runs exact with
// est.Exact set. A program longer than MaxCycles × FetchWidth instructions,
// which no exact run could retire, fails with ErrCycleLimit.
func SimulateSampled(ctx context.Context, p *isa.Program, cfg Config, sp Sampling) (*Stats, *SampleEstimate, error) {
	if !sp.Enabled() {
		st, err := SimulateChecked(ctx, p, cfg)
		return st, nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	tr, mispredicts, err := wholeTrace(ctx, p, &cfg)
	if err != nil {
		return nil, nil, err
	}
	if uint64(tr.n) <= sp.Period {
		st, err := SimulateChecked(ctx, p, cfg)
		if err != nil {
			return nil, nil, err
		}
		return st, &SampleEstimate{
			DetailedInstrs: st.Retired,
			MeasuredInstrs: st.Retired,
			CPI:            float64(st.Cycles) / float64(max(st.Retired, 1)),
			Exact:          true,
		}, nil
	}
	return runSampled(ctx, p, cfg, sp, tr, mispredicts)
}

// wholeTrace grows p's shared trace to the program's end, a step at a time,
// polling ctx between steps, and returns it with cfg's mispredict count. It
// stops with ErrCycleLimit past MaxCycles × FetchWidth instructions: exact
// mode could fetch no more.
func wholeTrace(ctx context.Context, p *isa.Program, cfg *Config) (*trace, uint64, error) {
	e := replayFor(p)
	limit := uint64(math.MaxUint64) // the product saturates: Validate bounds neither factor
	if hi, lo := bits.Mul64(cfg.MaxCycles, uint64(cfg.FetchWidth)); hi == 0 {
		limit = lo
	}
	for pos := 0; ; {
		if ctx.Err() != nil {
			return nil, 0, sampledCtxErr(ctx, cfg, p, "pre-execution", uint64(pos))
		}
		tr, _, mispredicts := e.upTo(p, pos, cfg)
		if uint64(tr.n) > limit {
			return nil, 0, fmt.Errorf("uarch: %s on %q %w: the program runs past %d instructions, more than %d cycles can fetch at width %d",
				cfg.Core, p.Name, ErrCycleLimit, limit, cfg.MaxCycles, cfg.FetchWidth)
		}
		if tr.ended {
			return tr, mispredicts, nil
		}
		pos = tr.n
	}
}

// warmer replays the trace functionally, keeping the caches — the
// structures with long-lived state the detailed machine does not rebuild —
// warm across fast-forwarded stretches. It mirrors the front end's access
// pattern: one I-cache probe per line transition, one D-cache touch per load
// or store. The branch predictor needs no warming: the program's shared
// mispredict set already says what a predictor trained on the whole trace in
// order would predict.
type warmer struct {
	tr       *trace
	meta     []staticMeta
	hier     *mem.Hierarchy
	cur      cursor
	lastLine uint64
	haveLine bool
}

func (w *warmer) warm() {
	pc, _, addr := w.cur.next(w.tr, w.meta)
	ia := instrAddr(pc)
	if line := ia >> 6; !w.haveLine || line != w.lastLine {
		w.hier.AccessI(ia)
		w.lastLine, w.haveLine = line, true
	}
	if sm := &w.meta[pc]; sm.isLoad || sm.isStore {
		w.hier.AccessD(addr)
	}
}

// runSampled alternates functional fast-forward with detailed measurement
// intervals and scales the interval measurements into estimated Stats.
func runSampled(ctx context.Context, p *isa.Program, cfg Config, sp Sampling, tr *trace, mispredicts uint64) (st *Stats, est *SampleEstimate, err error) {
	var hier *mem.Hierarchy
	defer func() {
		if r := recover(); r != nil {
			st, est = nil, nil
			err = &SimFault{
				Core:    cfg.Core,
				Program: p.Name,
				Panic:   r,
				Stack:   debug.Stack(),
			}
			return // a panic may have left the hierarchy half updated
		}
		if hier != nil {
			putSpare(&spares.hiers, hier)
		}
	}()

	hier, err = warmHierarchy(p, cfg.Mem, takeSpare(&spares.hiers))
	if err != nil {
		return nil, nil, err
	}
	w := &warmer{tr: tr, meta: programMeta(p), hier: hier}

	n := uint64(tr.n)
	var (
		sumC, sumU float64   // ratio-estimator accumulators (measured windows)
		cpis       []float64 // per-interval CPIs, for the variance
		micro      Stats     // accumulated interval-machine micro counters
		detailed   uint64    // instructions run on the detailed engine
		measured   uint64    // ... of which inside measurement windows
	)
	done := ctx.Done()
	nextSample := uint64(0)
	for uint64(w.cur.pos) < n {
		pos := uint64(w.cur.pos)
		if done != nil {
			select {
			case <-done:
				return nil, nil, sampledCtxErr(ctx, &cfg, p, "fast-forward", pos)
			default:
			}
		}
		if pos >= nextSample {
			// Detailed interval. The machine shares the warmer's
			// hierarchy and starts at its cursor, so its fetch IS the
			// warming for the span it covers; the warmer resumes where
			// fetch stopped.
			c, u, ist, ierr := runInterval(ctx, p, cfg, w, sp.Warmup, sp.Detail)
			if ierr != nil {
				return nil, nil, ierr
			}
			detailed += uint64(w.cur.pos) - pos
			if u > 0 {
				sumC += float64(c)
				sumU += float64(u)
				measured += u
				cpis = append(cpis, float64(c)/float64(u))
			}
			accumulateMicro(&micro, &ist)
			nextSample += sp.Period
			continue
		}
		// Functional fast-forward to the next sample point.
		stop := min(nextSample, n)
		for ; pos < stop; pos++ {
			if done != nil && pos%ffCheckInterval == 0 {
				select {
				case <-done:
					return nil, nil, sampledCtxErr(ctx, &cfg, p, "fast-forward", pos)
				default:
				}
			}
			w.warm()
		}
	}
	if sumU == 0 {
		// Cannot happen with a validated geometry (the first interval
		// starts at instruction 0 and n > Period > Warmup+Detail), but
		// never divide by zero on an estimator.
		return nil, nil, fmt.Errorf("uarch: %s on %q: sampling %s measured no instructions", cfg.Core, p.Name, sp)
	}

	cpiHat := sumC / sumU
	estCycles := uint64(math.Round(cpiHat * float64(n)))
	if estCycles >= cfg.MaxCycles {
		// Exact mode would exhaust its cycle budget on this point; agree
		// with it instead of reporting an estimate no exact run could
		// reach.
		return nil, nil, fmt.Errorf("uarch: %s on %q %w: estimated %d cycles exceed budget %d (sampling %s)",
			cfg.Core, p.Name, ErrCycleLimit, estCycles, cfg.MaxCycles, sp)
	}

	// Measured micro counters scale by the inverse sampling fraction; the
	// architectural counts are exact from the trace and, for mispredicts,
	// the program's shared mispredict set for this geometry.
	scale := float64(n) / float64(max(detailed, 1))
	scaleU := func(v uint64) uint64 { return uint64(math.Round(float64(v) * scale)) }
	st = &Stats{
		Cycles:           estCycles,
		Retired:          n,
		Fetched:          n,
		CondBranches:     tr.condBranches,
		Mispredicts:      mispredicts,
		Loads:            tr.loads,
		StoreCount:       tr.stores,
		ICacheMissCycles: scaleU(micro.ICacheMissCycles),
		IssueStalls:      scaleU(micro.IssueStalls),
		IdleCycles:       scaleU(micro.IdleCycles),
		FetchStallCycles: scaleU(micro.FetchStallCycles),
		robOccupancySum:  scaleU(micro.robOccupancySum),
		issuedSum:        scaleU(micro.issuedSum),
		RFEntryStalls:    scaleU(micro.RFEntryStalls),
		PortStalls:       scaleU(micro.PortStalls),
		WritePortStalls:  scaleU(micro.WritePortStalls),
		BypassDenied:     scaleU(micro.BypassDenied),
		RFPeak:           micro.RFPeak,
	}
	if cfg.ExceptionEvery > 0 {
		st.Exceptions = n / cfg.ExceptionEvery
	}
	est = &SampleEstimate{
		Intervals:      len(cpis),
		DetailedInstrs: detailed,
		FFwdInstrs:     n - detailed,
		MeasuredInstrs: measured,
		CPI:            cpiHat,
		IPCRelCI:       relCI95(cpis, cpiHat),
	}
	return st, est, nil
}

// runInterval runs one detailed measurement interval: a fresh machine is
// built at the warmer's cursor directly on its hierarchy (its fetch is the
// warming for the span it covers), simulated through the warm-up, and
// measured for the detail window. It returns the measured cycles and
// instructions (zero if the program ended inside the warm-up) and the
// machine's full interval stats for micro-counter scaling, and leaves the
// warmer's cursor where fetch stopped. The machine comes from recycled
// memory and goes back to it, without the hierarchy, which is the warmer's.
func runInterval(ctx context.Context, p *isa.Program, cfg Config, w *warmer, warmup, detail uint64) (cycles, instrs uint64, st Stats, err error) {
	cfg.fault = nil // the fault hook targets the exact path only
	m, err := newMachine(p, cfg, w.hier, takeSpare(&spares.machines))
	if err != nil {
		return 0, 0, Stats{}, err
	}
	cycles, instrs, err = m.measure(ctx, w, warmup, detail)
	st = m.stats
	m.recycle(nil) // not reached if the run panicked
	return cycles, instrs, st, err
}

// measure runs runInterval's machine from the warmer's cursor through the
// warm-up and then, unless the program ended first, through the detail
// window.
func (m *Machine) measure(ctx context.Context, w *warmer, warmup, detail uint64) (cycles, instrs uint64, err error) {
	m.fe.cur = w.cur
	done, err := m.run(ctx, warmup)
	warmCycles, warmRetired := m.cycle, m.stats.Retired
	if err == nil && !done {
		_, err = m.run(ctx, warmup+detail)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("%w inside one sampled interval at instruction %d", err, w.cur.pos)
	}
	// Hand the cursor and the I-cache line state back so the warmer's next
	// probe pattern continues exactly where fetch left off.
	w.cur = m.fe.cur
	w.lastLine, w.haveLine = m.fe.lastLine, m.fe.haveLine
	return m.cycle - warmCycles, m.stats.Retired - warmRetired, nil
}

// accumulateMicro sums the interval machine's scalable micro counters.
func accumulateMicro(dst, s *Stats) {
	dst.Retired += s.Retired
	dst.ICacheMissCycles += s.ICacheMissCycles
	dst.IssueStalls += s.IssueStalls
	dst.IdleCycles += s.IdleCycles
	dst.FetchStallCycles += s.FetchStallCycles
	dst.robOccupancySum += s.robOccupancySum
	dst.issuedSum += s.issuedSum
	dst.RFEntryStalls += s.RFEntryStalls
	dst.PortStalls += s.PortStalls
	dst.WritePortStalls += s.WritePortStalls
	dst.BypassDenied += s.BypassDenied
	if s.RFPeak > dst.RFPeak {
		dst.RFPeak = s.RFPeak
	}
}

// relCI95 is the half-width of the 95% confidence interval on CPI (and
// therefore on IPC, to first order), relative to the ratio estimate: the
// per-interval CPI standard error times 1.96 over the estimate.
func relCI95(cpis []float64, cpiHat float64) float64 {
	n := len(cpis)
	if n < 2 || cpiHat == 0 {
		return 0
	}
	mean := 0.0
	for _, c := range cpis {
		mean += c
	}
	mean /= float64(n)
	varSum := 0.0
	for _, c := range cpis {
		d := c - mean
		varSum += d * d
	}
	se := math.Sqrt(varSum / float64(n-1) / float64(n))
	ci := 1.96 * se / cpiHat
	if math.IsNaN(ci) || math.IsInf(ci, 0) {
		// Estimates travel through JSON (json.Marshal rejects NaN/Inf
		// outright, turning one degenerate interval geometry into a
		// failed response), so never let a non-finite value escape.
		return 0
	}
	return ci
}

// sampledCtxErr mirrors Machine.ctxErr for cancellation during trace
// pre-execution or functional fast-forward (the phase), where no machine
// exists.
func sampledCtxErr(ctx context.Context, cfg *Config, p *isa.Program, phase string, pos uint64) error {
	sentinel := ErrCanceled
	if ctx.Err() == context.DeadlineExceeded {
		sentinel = ErrTimeout
	}
	return fmt.Errorf("uarch: %s on %q %w during %s at instruction %d",
		cfg.Core, p.Name, sentinel, phase, pos)
}
