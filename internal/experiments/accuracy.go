package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"braid/internal/uarch"
)

// Sampling-accuracy harness: runs every benchmark exact and sampled
// back-to-back in-process, single-threaded, and reports per-benchmark IPC
// error and wall-clock speedup plus suite aggregates. The committed
// BENCH_sampling_accuracy.json is this report; CI re-runs a scaled-down
// version and asserts the error and speedup bounds.

// AccuracyPoint is one benchmark's exact-vs-sampled comparison.
type AccuracyPoint struct {
	Bench          string  `json:"bench"`
	ExactIPC       float64 `json:"exact_ipc"`
	SampledIPC     float64 `json:"sampled_ipc"`
	RelErr         float64 `json:"rel_err"`      // |sampled-exact|/exact
	RelCI          float64 `json:"ipc_rel_ci95"` // estimator's own error bar
	Intervals      int     `json:"intervals"`
	DetailedInstrs uint64  `json:"detailed_instructions"`
	FFwdInstrs     uint64  `json:"fastforward_instructions"`
	ExactSeconds   float64 `json:"exact_seconds"`
	SampledSeconds float64 `json:"sampled_seconds"`
	Speedup        float64 `json:"speedup"`
}

// AccuracyReport aggregates the suite comparison. SuiteSpeedup is total
// exact wall-clock over total sampled wall-clock — the throughput multiplier
// a whole-suite sweep sees, which weights long benchmarks more than the
// per-point mean does.
type AccuracyReport struct {
	Sampling      uarch.Sampling  `json:"sampling"`
	Core          string          `json:"core"`
	Braided       bool            `json:"braided"`
	Points        []AccuracyPoint `json:"points"`
	MeanAbsRelErr float64         `json:"mean_abs_rel_err"`
	MaxAbsRelErr  float64         `json:"max_abs_rel_err"`
	SuiteSpeedup  float64         `json:"suite_speedup"`
}

// MeasureAccuracy compares sampled against exact simulation over the whole
// suite under cfg. Runs are sequential and in-process so the wall-clock
// ratio is an honest single-core throughput comparison (the exact run goes
// first, so one-time trace construction — which both modes share — is
// charged to the exact side it was built for). Benchmarks shorter than one
// sampling period fall back to exact and are skipped: they measure nothing.
func MeasureAccuracy(ctx context.Context, w *Workloads, cfg uarch.Config, braided bool, sp uarch.Sampling) (*AccuracyReport, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if !sp.Enabled() {
		return nil, fmt.Errorf("experiments: accuracy harness needs an enabled sampling geometry")
	}
	rep := &AccuracyReport{Sampling: sp, Core: cfg.Core.String(), Braided: braided}
	var exactTotal, sampledTotal float64
	for _, b := range w.Benches {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: accuracy sweep: %w", uarch.ErrCanceled)
		}
		p := b.program(braided)

		t0 := time.Now()
		exact, err := uarch.SimulateChecked(ctx, p, cfg)
		exactSec := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s exact: %w", b.Name, err)
		}

		t0 = time.Now()
		st, est, err := uarch.SimulateSampled(ctx, p, cfg, sp)
		sampledSec := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sampled: %w", b.Name, err)
		}
		if est.Exact {
			continue // shorter than one period: nothing was sampled
		}

		relErr := math.Abs(st.IPC()-exact.IPC()) / exact.IPC()
		rep.Points = append(rep.Points, AccuracyPoint{
			Bench:          b.Name,
			ExactIPC:       exact.IPC(),
			SampledIPC:     st.IPC(),
			RelErr:         relErr,
			RelCI:          est.IPCRelCI,
			Intervals:      est.Intervals,
			DetailedInstrs: est.DetailedInstrs,
			FFwdInstrs:     est.FFwdInstrs,
			ExactSeconds:   exactSec,
			SampledSeconds: sampledSec,
			Speedup:        exactSec / sampledSec,
		})
		exactTotal += exactSec
		sampledTotal += sampledSec
		rep.MeanAbsRelErr += relErr
		if relErr > rep.MaxAbsRelErr {
			rep.MaxAbsRelErr = relErr
		}
	}
	if len(rep.Points) == 0 {
		return nil, fmt.Errorf("experiments: accuracy sweep: every benchmark was shorter than one sampling period %s", sp)
	}
	rep.MeanAbsRelErr /= float64(len(rep.Points))
	if sampledTotal > 0 {
		rep.SuiteSpeedup = exactTotal / sampledTotal
	}
	return rep, nil
}
