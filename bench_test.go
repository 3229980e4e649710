package braid

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates its artifact over the full 26-benchmark suite and reports the
// headline number next to the paper's value, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. The suite is prepared once and shared;
// use cmd/braidbench for the full per-benchmark tables.

import (
	"context"
	"sync"
	"testing"
	"time"

	"braid/internal/experiments"
	"braid/internal/uarch"
	"braid/internal/workload"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Workloads
	suiteErr  error
)

// benchDynTarget keeps `go test -bench=.` affordable; cmd/braidbench
// defaults to larger runs.
const benchDynTarget = 15000

func loadSuite(b *testing.B) *experiments.Workloads {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = experiments.LoadSuite(benchDynTarget)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// runExperiment executes one experiment per iteration and reports its
// claims as benchmark metrics (measured vs paper).
func runExperiment(b *testing.B, id string) {
	w := loadSuite(b)
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			for _, c := range res.Claims {
				b.ReportMetric(c.Measured, "measured:"+metricName(c.Desc))
				b.ReportMetric(c.Paper, "paper:"+metricName(c.Desc))
			}
			b.StartTimer()
		}
	}
}

// BenchmarkSimThroughput measures raw simulator speed — retired instructions
// per wall-clock second (MIPS) — for one representative benchmark under each
// core paradigm. This is the per-paradigm complement to cmd/braidbench's
// -throughput flag, which reports the same metric over the full evaluation.
func BenchmarkSimThroughput(b *testing.B) {
	w := loadSuite(b)
	bench := w.Benches[0]
	cases := []struct {
		name    string
		braided bool
		cfg     uarch.Config
	}{
		{"inorder-8", false, uarch.InOrderConfig(8)},
		{"depsteer-8", false, uarch.DepSteerConfig(8)},
		{"ooo-8", false, uarch.OutOfOrderConfig(8)},
		{"braid-8", true, uarch.BraidConfig(8)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p := bench.Orig
			if c.braided {
				p = bench.Braided
			}
			var instrs uint64
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				st, err := uarch.Simulate(p, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				instrs += st.Retired
			}
			if secs := time.Since(start).Seconds(); secs > 0 {
				b.ReportMetric(float64(instrs)/secs/1e6, "MIPS")
			}
		})
	}
}

// BenchmarkSampledThroughput pits interval sampling against exact simulation
// on a workload long enough to fast-forward most of its instructions. The
// exact case reports detailed-engine MIPS; the sampled case reports both
// detailed MIPS (honest engine speed) and effective MIPS (retired
// instructions per second, counting the fast-forwarded leap) — the ratio of
// effective to exact MIPS is the sweep-throughput win sampling buys.
func BenchmarkSampledThroughput(b *testing.B) {
	prof, ok := workload.ProfileByName("gcc")
	if !ok {
		b.Fatal("gcc profile missing")
	}
	p, err := workload.Generate(prof, 2000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := uarch.OutOfOrderConfig(8)
	sp := uarch.Sampling{Period: 100_000, Detail: 5_000, Warmup: 5_000}

	b.Run("exact", func(b *testing.B) {
		var instrs uint64
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			st, err := uarch.Simulate(p, cfg)
			if err != nil {
				b.Fatal(err)
			}
			instrs += st.Retired
		}
		if secs := time.Since(start).Seconds(); secs > 0 {
			b.ReportMetric(float64(instrs)/secs/1e6, "MIPS")
		}
	})
	b.Run("sampled", func(b *testing.B) {
		var detailed, retired uint64
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			st, est, err := uarch.SimulateSampled(context.Background(), p, cfg, sp)
			if err != nil {
				b.Fatal(err)
			}
			detailed += est.DetailedInstrs
			retired += st.Retired
		}
		if secs := time.Since(start).Seconds(); secs > 0 {
			b.ReportMetric(float64(detailed)/secs/1e6, "MIPS")
			b.ReportMetric(float64(retired)/secs/1e6, "effective_MIPS")
		}
	})
}

func metricName(desc string) string {
	out := make([]rune, 0, len(desc))
	for _, r := range desc {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
		if len(out) >= 40 {
			break
		}
	}
	return string(out)
}

// BenchmarkValueCharacterization regenerates the §1 motivation numbers
// (fanout, lifetime).
func BenchmarkValueCharacterization(b *testing.B) { runExperiment(b, "values") }

// BenchmarkFig1WidthPotential regenerates Figure 1: 8- and 16-wide speedup
// over 4-wide with a perfect front end.
func BenchmarkFig1WidthPotential(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable1BraidsPerBlock regenerates Table 1.
func BenchmarkTable1BraidsPerBlock(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2SizeWidth regenerates Table 2.
func BenchmarkTable2SizeWidth(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3InputsOutputs regenerates Table 3.
func BenchmarkTable3InputsOutputs(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig5OoORegisters regenerates Figure 5: conventional IPC vs
// register-file entries.
func BenchmarkFig5OoORegisters(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6ExternalRegisters regenerates Figure 6: braid IPC vs external
// register-file entries.
func BenchmarkFig6ExternalRegisters(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7RegisterPorts regenerates Figure 7: braid IPC vs external
// register-file ports.
func BenchmarkFig7RegisterPorts(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8Bypass regenerates Figure 8: braid IPC vs bypass paths.
func BenchmarkFig8Bypass(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9BEUs regenerates Figure 9: braid IPC vs the number of BEUs.
func BenchmarkFig9BEUs(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10FIFOSize regenerates Figure 10: braid IPC vs BEU FIFO depth.
func BenchmarkFig10FIFOSize(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11Window regenerates Figure 11: braid IPC vs the in-order
// scheduling window.
func BenchmarkFig11Window(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12WindowFUs regenerates Figure 12: braid IPC vs window size
// and functional units varied together.
func BenchmarkFig12WindowFUs(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13Paradigms regenerates Figure 13: the four paradigms at 4-,
// 8-, and 16-wide.
func BenchmarkFig13Paradigms(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14EqualFU regenerates Figure 14: equal functional-unit budget,
// BEU count vs per-BEU width.
func BenchmarkFig14EqualFU(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkPipelineShortening regenerates the §5.1 claim: the gain from the
// 4-stage-shorter braid pipeline.
func BenchmarkPipelineShortening(b *testing.B) { runExperiment(b, "pipeline") }
