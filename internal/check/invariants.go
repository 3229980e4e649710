package check

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"braid/internal/isa"
	"braid/internal/uarch"
)

// archSig is the architectural signature of one simulation: the counters
// that depend only on the program, never on machine sizing, plus a digest
// of exactly which dynamic branches mispredicted (sequence number and
// static index in retirement order). Fetch follows the functional trace in
// order on every core, so the perceptron predictor sees the same training
// sequence regardless of issue width, window sizes, or cache geometry —
// the mispredicted *set*, not just its count, must be invariant.
type archSig struct {
	Retired, Fetched         uint64
	CondBranches, Mispredict uint64
	Loads, Stores            uint64
	MispredictDigest         [sha256.Size]byte
}

func (a archSig) String() string {
	return fmt.Sprintf("retired=%d fetched=%d cond=%d misp=%d(%x) loads=%d stores=%d",
		a.Retired, a.Fetched, a.CondBranches, a.Mispredict, a.MispredictDigest[:6], a.Loads, a.Stores)
}

// signature simulates p under cfg and extracts its architectural signature
// through a retire observer.
func signature(ctx context.Context, p *isa.Program, cfg uarch.Config) (archSig, *uarch.Stats, error) {
	h := sha256.New()
	var buf [12]byte
	st, err := uarch.SimulateObserved(ctx, p, cfg, func(ev uarch.RetireEvent) {
		if !ev.Mispredicted {
			return
		}
		binary.LittleEndian.PutUint64(buf[0:], ev.Seq)
		binary.LittleEndian.PutUint32(buf[8:], uint32(ev.Index))
		h.Write(buf[:])
	})
	if err != nil {
		return archSig{}, nil, err
	}
	sig := archSig{
		Retired: st.Retired, Fetched: st.Fetched,
		CondBranches: st.CondBranches, Mispredict: st.Mispredicts,
		Loads: st.Loads, Stores: st.StoreCount,
	}
	h.Sum(sig.MispredictDigest[:0])
	return sig, st, nil
}

// sizingVariants returns configurations that resize the machine around
// base without touching anything architectural: issue width (with the
// front end and ROB scaled as the constructors do), ROB alone, and cache
// geometry. Architectural signatures must be identical across all of them.
func sizingVariants(base func(int) uarch.Config, w int) []uarch.Config {
	variants := []uarch.Config{base(w)}

	if w != 4 {
		variants = append(variants, base(4))
	} else {
		variants = append(variants, base(8))
	}

	robSmall := base(w)
	robSmall.ROB = maxInt(robSmall.ROB/8, 2*w)
	variants = append(variants, robSmall)

	tinyCache := base(w)
	tinyCache.Mem.L1I.SizeKB, tinyCache.Mem.L1I.Assoc = 4, 1
	tinyCache.Mem.L1D.SizeKB, tinyCache.Mem.L1D.Assoc = 4, 1
	tinyCache.Mem.L2.SizeKB = 64
	tinyCache.Mem.MemLatency = 800
	variants = append(variants, tinyCache)

	exact := base(w)
	exact.NoFastForward = true
	variants = append(variants, exact)

	return variants
}

// wideningVariants returns (label, config) pairs in which exactly one
// resource of base has been widened. None of them may lower IPC by more
// than the configured tolerance: a bigger window, register file, port
// count, or bypass never makes a machine slower (beyond cache-timing
// wobble from shifted access interleavings).
func wideningVariants(base uarch.Config) []struct {
	label string
	cfg   uarch.Config
} {
	out := []struct {
		label string
		cfg   uarch.Config
	}{}
	add := func(label string, mut func(*uarch.Config)) {
		c := base
		mut(&c)
		out = append(out, struct {
			label string
			cfg   uarch.Config
		}{label, c})
	}
	add("rob*2", func(c *uarch.Config) { c.ROB *= 2 })
	add("rf*2", func(c *uarch.Config) { c.RFEntries *= 2 })
	add("rfports*2", func(c *uarch.Config) { c.RFReadPorts *= 2; c.RFWritePorts *= 2 })
	add("bypass*2", func(c *uarch.Config) { c.BypassValues *= 2; c.BypassLevels++ })
	switch base.Core {
	case uarch.CoreOutOfOrder:
		add("sched*2", func(c *uarch.Config) { c.SchedEntries *= 2 })
	case uarch.CoreBraid:
		add("beufifo*2", func(c *uarch.Config) { c.BEUFIFO *= 2 })
		add("beuwindow*2", func(c *uarch.Config) { c.BEUWindow *= 2 })
	case uarch.CoreDepSteer:
		add("fifos*2", func(c *uarch.Config) { c.SteerFIFODeep *= 2 })
	}
	return out
}

// Invariants runs the metamorphic battery on one program: properties that
// need no oracle because they compare the simulator against itself under
// controlled configuration changes.
func Invariants(ctx context.Context, name string, orig, braided *isa.Program, opts Options) []Finding {
	opts = opts.withDefaults()
	var out []Finding
	report := func(core string, cfg *uarch.Config, format string, args ...any) {
		p := orig
		if cfg != nil && cfg.Core == uarch.CoreBraid {
			p = braided
		}
		out = append(out, Finding{Kind: "invariant", Program: name, Core: core,
			Detail: fmt.Sprintf(format, args...), Prog: p, Cfg: cfg})
	}

	// 1. Architectural counts are invariant across machine sizing. The
	// out-of-order constructor covers the conventional paradigms' shared
	// front end; the braid constructor covers the braided program.
	classes := []struct {
		base func(int) uarch.Config
		prog *isa.Program
	}{
		{uarch.OutOfOrderConfig, orig},
		{uarch.BraidConfig, braided},
	}
	for _, cl := range classes {
		variants := sizingVariants(cl.base, opts.Widths[0])
		var ref archSig
		var refCfg uarch.Config
		for i, cfg := range variants {
			sig, _, err := signature(ctx, cl.prog, cfg)
			if err != nil {
				if ctx.Err() != nil {
					return out
				}
				c := cfg
				report(fmt.Sprintf("%s/w%d", cfg.Core, cfg.IssueWidth), &c, "sizing variant %d failed: %v", i, err)
				continue
			}
			if i == 0 {
				ref, refCfg = sig, cfg
				continue
			}
			if sig != ref {
				c := cfg
				report(fmt.Sprintf("%s/w%d", cfg.Core, cfg.IssueWidth), &c,
					"architectural signature changed with machine sizing: variant %d {%s}, reference %s/w%d {%s}",
					i, sig, refCfg.Core, refCfg.IssueWidth, ref)
			}
		}
	}

	// 2. Widening any single resource never lowers IPC beyond tolerance.
	for _, base := range []uarch.Config{
		uarch.OutOfOrderConfig(opts.Widths[0]),
		uarch.BraidConfig(opts.Widths[0]),
	} {
		p := orig
		if base.Core == uarch.CoreBraid {
			p = braided
		}
		baseStats, err := uarch.SimulateChecked(ctx, p, base)
		if err != nil {
			if ctx.Err() != nil {
				return out
			}
			c := base
			report(fmt.Sprintf("%s/w%d", base.Core, base.IssueWidth), &c, "base run failed: %v", err)
			continue
		}
		for _, v := range wideningVariants(base) {
			st, err := uarch.SimulateChecked(ctx, p, v.cfg)
			if err != nil {
				if ctx.Err() != nil {
					return out
				}
				c := v.cfg
				report(fmt.Sprintf("%s/w%d", v.cfg.Core, v.cfg.IssueWidth), &c, "widened run (%s) failed: %v", v.label, err)
				continue
			}
			// Retired counts are identical (checked by the sizing
			// invariant), so compare in the cycle domain with a bounded
			// absolute slack on top of the relative tolerance. Widening a
			// resource can genuinely cost a few cycles — admitting more
			// instructions in flight shifts issue and writeback
			// arbitration (a 4-entry braid RF throttles the front end in
			// a way that *avoids* writeback contention an 8-entry one
			// hits) — but each such anomaly is a transient worth O(drain)
			// cycles. On real workloads that amortizes to nothing; only
			// on ~150-cycle adversarial programs would a pure relative
			// bound misread it as a regression.
			slack := uint64(maxInt(32, base.MispredictMin))
			limit := uint64(float64(baseStats.Cycles)*(1+opts.IPCTol)) + slack
			if st.Cycles > limit {
				c := v.cfg
				report(fmt.Sprintf("%s/w%d", v.cfg.Core, v.cfg.IssueWidth), &c,
					"widening %s lowered IPC %.4f -> %.4f (%d -> %d cycles; tolerance %.0f%% + %d cycles)",
					v.label, baseStats.IPC(), st.IPC(), baseStats.Cycles, st.Cycles, 100*opts.IPCTol, slack)
			}
		}
	}

	// 3. Reruns are bit-identical: the simulator is deterministic, which
	// is what lets -j workers and remote backends share one answer.
	det := uarch.OutOfOrderConfig(opts.Widths[0])
	s1, err1 := uarch.SimulateChecked(ctx, orig, det)
	s2, err2 := uarch.SimulateChecked(ctx, orig, det)
	switch {
	case err1 != nil || err2 != nil:
		if ctx.Err() != nil {
			return out
		}
		c := det
		report(fmt.Sprintf("%s/w%d", det.Core, det.IssueWidth), &c, "determinism runs failed: %v / %v", err1, err2)
	case *s1 != *s2:
		c := det
		report(fmt.Sprintf("%s/w%d", det.Core, det.IssueWidth), &c,
			"rerun produced different stats: %+v vs %+v", *s1, *s2)
	}

	// 4. Sampled simulation: architectural counts stay exact for every
	// interval geometry, and the cycle estimate converges to the exact
	// run as Detail approaches Period.
	if opts.Sampled {
		out = append(out, sampledConvergence(ctx, name, orig, uarch.OutOfOrderConfig(opts.Widths[0]), opts)...)
	}
	return out
}

// sampledConvergence checks SimulateSampled against the exact simulation
// at increasing detail fractions: architectural counts must match exactly
// at every geometry, and the IPC error at the largest detail fraction must
// be both small and no worse than at the smallest (plus slack for interval
// rounding).
func sampledConvergence(ctx context.Context, name string, p *isa.Program, cfg uarch.Config, opts Options) []Finding {
	var out []Finding
	core := fmt.Sprintf("%s/w%d", cfg.Core, cfg.IssueWidth)
	report := func(format string, args ...any) {
		c := cfg
		out = append(out, Finding{Kind: "invariant", Program: name, Core: core,
			Detail: fmt.Sprintf(format, args...), Prog: p, Cfg: &c})
	}

	exact, err := uarch.SimulateChecked(ctx, p, cfg)
	if err != nil {
		if ctx.Err() == nil {
			report("exact run failed: %v", err)
		}
		return out
	}
	n := exact.Retired
	period := n / 8
	if period < 2048 {
		// Too short to sample meaningfully; SimulateSampled would fall
		// back to exact mode, which checks nothing new.
		return out
	}
	warmup := period / 10
	var errs []float64
	fracs := []uint64{4, 1} // detail = (period-warmup-1)/frac; frac 1 ≈ Detail→Period
	for _, frac := range fracs {
		detail := (period - warmup - 1) / frac
		sp := uarch.Sampling{Period: period, Detail: detail, Warmup: warmup}
		st, est, err := uarch.SimulateSampled(ctx, p, cfg, sp)
		if err != nil {
			if ctx.Err() != nil {
				return out
			}
			report("sampled run %s failed: %v", sp, err)
			return out
		}
		if est.Exact {
			report("sampled run %s unexpectedly fell back to exact mode", sp)
			return out
		}
		if st.Retired != exact.Retired || st.Fetched != exact.Fetched ||
			st.CondBranches != exact.CondBranches || st.Mispredicts != exact.Mispredicts ||
			st.Loads != exact.Loads || st.StoreCount != exact.StoreCount {
			report("sampled run %s changed architectural counts: sampled retired=%d cond=%d misp=%d loads=%d stores=%d, exact retired=%d cond=%d misp=%d loads=%d stores=%d",
				sp, st.Retired, st.CondBranches, st.Mispredicts, st.Loads, st.StoreCount,
				exact.Retired, exact.CondBranches, exact.Mispredicts, exact.Loads, exact.StoreCount)
		}
		if !isFinite(est.IPCRelCI) || !isFinite(est.CPI) {
			report("sampled run %s produced a non-finite estimate: cpi=%v ci=%v", sp, est.CPI, est.IPCRelCI)
		}
		errs = append(errs, math.Abs(st.IPC()-exact.IPC())/exact.IPC())
	}
	last := errs[len(errs)-1]
	if last > 0.25 {
		report("sampled estimate did not converge: %.1f%% IPC error at the largest detail fraction", 100*last)
	}
	if last > errs[0]+0.10 {
		report("sampled IPC error grew with detail: %.1f%% at detail/4, %.1f%% at detail/1 — more measurement must not mean worse estimates", 100*errs[0], 100*last)
	}
	return out
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
