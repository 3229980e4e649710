package service

import (
	"expvar"
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// metrics is the server's observability surface, rendered as JSON at
// /metrics. Every var lives in a per-server expvar.Map rather than the
// process-global expvar registry, so multiple Servers (the tests spin up
// many) never collide on Publish.
type metrics struct {
	start time.Time
	m     *expvar.Map

	requests    expvar.Int // requests entering any endpoint
	resp2xx     expvar.Int
	resp4xx     expvar.Int
	resp5xx     expvar.Int
	shed        expvar.Int // 429s from a full admission queue
	cacheHits   expvar.Int
	cacheMiss   expvar.Int // flight leaders only: actual simulator demand
	coalesced   expvar.Int // followers served by another request's run
	reelected   expvar.Int // followers that re-led a flight after leader cancellation
	simRuns     expvar.Int // simulations actually executed
	simInstrs   expvar.Int // instructions retired by executed simulations
	simDetailed expvar.Int // ... of which ran on the detailed engine
	simFFwd     expvar.Int // ... of which were functionally fast-forwarded
	simCycles   expvar.Int // cycles simulated by executed simulations
	simNanos    expvar.Int // wall-clock nanoseconds spent simulating
	faults      expvar.Int // contained *uarch.SimFault + compile faults
	cycleLim    expvar.Int // ErrCycleLimit failures
	deadline    expvar.Int // wall-clock deadline failures
	canceled    expvar.Int // client-abandoned simulations

	programBuilds  expvar.Int // program-cache misses that built a program half
	unknownProgram expvar.Int // image_sha256 requests the program cache could not serve

	histMu sync.Mutex
	hists  map[string]*latencyHist // endpoint -> request latency
}

func newMetrics(start time.Time) *metrics {
	mt := &metrics{start: start, m: new(expvar.Map).Init(), hists: make(map[string]*latencyHist)}
	for _, v := range []struct {
		name string
		v    expvar.Var
	}{
		{"requests_total", &mt.requests},
		{"responses_2xx", &mt.resp2xx},
		{"responses_4xx", &mt.resp4xx},
		{"responses_5xx", &mt.resp5xx},
		{"shed_total", &mt.shed},
		{"cache_hits", &mt.cacheHits},
		{"cache_misses", &mt.cacheMiss},
		{"coalesced_total", &mt.coalesced},
		{"coalesce_reelected_total", &mt.reelected},
		{"sim_runs_total", &mt.simRuns},
		{"sim_instructions_total", &mt.simInstrs},
		{"sim_detailed_instructions_total", &mt.simDetailed},
		{"sim_fastforward_instructions_total", &mt.simFFwd},
		{"sim_cycles_total", &mt.simCycles},
		{"sim_busy_ns_total", &mt.simNanos},
		{"faults_contained_total", &mt.faults},
		{"cycle_limit_total", &mt.cycleLim},
		{"deadline_total", &mt.deadline},
		{"canceled_total", &mt.canceled},
		{"program_builds_total", &mt.programBuilds},
		{"unknown_program_total", &mt.unknownProgram},
	} {
		mt.m.Set(v.name, v.v)
	}
	mt.m.Set("uptime_seconds", expvar.Func(func() any {
		return time.Since(mt.start).Seconds()
	}))
	// simulated_mips: detailed-engine instructions per microsecond of
	// simulator busy time — the service-level analogue of braidbench's MIPS
	// figure. Only detailed work counts: a sampled run's fast-forwarded
	// leap would otherwise inflate the engine's apparent speed. The
	// sweep-level effective rate is derivable from
	// sim_instructions_total / sim_busy_ns_total.
	mt.m.Set("simulated_mips", expvar.Func(func() any {
		ns := mt.simNanos.Value()
		if ns == 0 {
			return 0.0
		}
		return float64(mt.simDetailed.Value()) / (float64(ns) / 1e3)
	}))
	mt.m.Set("latency_ms", expvar.Func(mt.latencySnapshot))
	return mt
}

// observe records one finished request against its endpoint's histogram and
// the status-class counters.
func (mt *metrics) observe(endpoint string, status int, d time.Duration) {
	switch {
	case status >= 500:
		mt.resp5xx.Add(1)
	case status >= 400:
		mt.resp4xx.Add(1)
	default:
		mt.resp2xx.Add(1)
	}
	mt.histMu.Lock()
	h, ok := mt.hists[endpoint]
	if !ok {
		h = &latencyHist{}
		mt.hists[endpoint] = h
	}
	mt.histMu.Unlock()
	h.observe(d)
}

func (mt *metrics) latencySnapshot() any {
	mt.histMu.Lock()
	names := make([]string, 0, len(mt.hists))
	for name := range mt.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]any, len(names))
	for _, name := range names {
		out[name] = mt.hists[name].snapshot()
	}
	mt.histMu.Unlock()
	return out
}

// latencyHist is a log-scale latency histogram: bucket i holds requests
// whose latency is below 2^i microseconds, covering 1µs to ~67s. Quantiles
// read the upper bound of the bucket the quantile falls in, so they are
// upper estimates with at most 2x resolution error — plenty for a
// dashboard, with fixed memory and no per-request allocation.
type latencyHist struct {
	mu      sync.Mutex
	count   uint64
	sumUS   float64
	maxUS   float64
	buckets [27]uint64
	// overflow counts observations beyond the last bucket (≥ ~67s).
	// Folding them into the top bucket would make any quantile that lands
	// there report the bucket's 67s upper bound no matter how slow the
	// requests actually were — a silent under-report exactly when latency
	// is at its worst. Kept separate, such quantiles fall through to the
	// observed maximum instead.
	overflow uint64
}

func (h *latencyHist) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us)) // 2^(b-1) <= us < 2^b
	h.mu.Lock()
	h.count++
	h.sumUS += float64(us)
	if float64(us) > h.maxUS {
		h.maxUS = float64(us)
	}
	if b >= len(h.buckets) {
		h.overflow++
	} else {
		h.buckets[b]++
	}
	h.mu.Unlock()
}

// quantileLocked returns the q-quantile in milliseconds; h.mu must be held.
func (h *latencyHist) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			upperUS := float64(uint64(1) << i)
			if upperUS > h.maxUS {
				upperUS = h.maxUS
			}
			return upperUS / 1e3
		}
	}
	// The quantile falls among the overflow observations; the observed
	// maximum is the only honest upper bound left.
	return h.maxUS / 1e3
}

func (h *latencyHist) snapshot() map[string]any {
	h.mu.Lock()
	defer h.mu.Unlock()
	mean := 0.0
	if h.count > 0 {
		mean = h.sumUS / float64(h.count) / 1e3
	}
	return map[string]any{
		"count":    h.count,
		"mean_ms":  mean,
		"p50_ms":   h.quantileLocked(0.50),
		"p90_ms":   h.quantileLocked(0.90),
		"p99_ms":   h.quantileLocked(0.99),
		"max_ms":   h.maxUS / 1e3,
		"overflow": h.overflow,
	}
}
