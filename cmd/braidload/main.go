// Command braidload drives one running braidd with a concurrent request mix
// and reports service-level throughput: requests/sec, latency quantiles, and
// aggregate simulated MIPS. The mix is six workload profiles (gcc, mcf, gzip,
// crafty, art, equake) on the out-of-order and braid cores, 8 wide, at 60
// iterations: 12 requests that -n requests cycle over in order, so every one
// repeats and exercises the result cache. With -verify it also simulates the
// 12 locally and demands bit-identical Stats JSON from the service — the
// determinism contract the result cache depends on.
//
//	braidd -addr 127.0.0.1:8080 &
//	braidload -addr http://127.0.0.1:8080 -c 32 -n 512 -verify -out BENCH_service_throughput.json
//
// A fleet of braidd is driven by braidbench -remote, whose sweeps diff byte
// for byte against local output.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"braid/internal/service"
	"braid/internal/uarch"
)

// The request mix and the client's patience. bench/'s braidd-mixed workload
// replays the same mix.
var (
	mixWorkloads = []string{"gcc", "mcf", "gzip", "crafty", "art", "equake"}
	mixCores     = []string{"ooo", "braid"}
)

const (
	mixWidth       = 8
	mixIters       = 60
	requestTimeout = 120 * time.Second // per request
	healthWait     = 15 * time.Second  // for /healthz before the first request
)

func main() {
	var (
		addr   = flag.String("addr", "http://127.0.0.1:8080", "braidd base URL")
		conc   = flag.Int("c", 32, "concurrent clients")
		total  = flag.Int("n", 512, "total requests")
		verify = flag.Bool("verify", false, "simulate each unique request locally and demand bit-identical Stats")
		out    = flag.String("out", "", "write the benchmark JSON here as well as stdout")
	)
	flag.Parse()
	if strings.Contains(*addr, ",") {
		log.Fatal("braidload: -addr takes one braidd; drive a fleet with braidbench -remote")
	}
	if *conc < 1 || *total < 1 {
		log.Fatal("braidload: -c and -n must be positive")
	}

	res, err := load(&http.Client{Timeout: requestTimeout}, strings.TrimRight(*addr, "/"), *conc, *total, *verify)
	if err != nil {
		log.Fatalf("braidload: %v", err)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data))
	if *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("braidload: writing %s: %v", *out, err)
		}
	}
	if res.Errors > 0 {
		log.Fatalf("braidload: %d request(s) failed", res.Errors)
	}
}

// load waits for the braidd at addr to answer /healthz, simulates the mix
// locally if verify is set, sends total requests from conc clients, and
// scrapes the server's counters.
func load(client *http.Client, addr string, conc, total int, verify bool) (*loadResult, error) {
	if err := waitHealthy(client, addr, healthWait); err != nil {
		return nil, err
	}
	mix := buildMix()
	var want [][]byte
	if verify {
		var err error
		if want, err = expectedStats(mix); err != nil {
			return nil, fmt.Errorf("local verification run: %w", err)
		}
	}
	res := run(client, addr, mix, conc, total, want)
	res.Metrics = scrapeMetrics(client, addr)
	return res, nil
}

// buildMix returns the mix's requests, workload by workload, core by core.
func buildMix() []service.SimRequest {
	var mix []service.SimRequest
	for _, prof := range mixWorkloads {
		for _, core := range mixCores {
			mix = append(mix, service.SimRequest{Workload: prof, Iters: mixIters, Core: core, Width: mixWidth})
		}
	}
	return mix
}

func mixKey(req *service.SimRequest) string { return req.Workload + "/" + req.Core }

func waitHealthy(client *http.Client, addr string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %s (last: err=%v)", addr, wait, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// expectedStats simulates every mix request in-process, through the Build
// path the service uses, and returns the Stats JSON a correct response to
// each must carry. Build is deterministic, so the program is byte-identical
// to the one the server builds from the name.
func expectedStats(mix []service.SimRequest) ([][]byte, error) {
	want := make([][]byte, len(mix))
	errs := make([]error, len(mix))
	var wg sync.WaitGroup
	for i := range mix {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := service.Build(&mix[i], service.Limits{})
			var st *uarch.Stats
			if err == nil {
				st, err = uarch.Simulate(b.Program, b.Config)
			}
			if err == nil {
				want[i], err = json.Marshal(st)
			}
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", mixKey(&mix[i]), err)
			}
		}(i)
	}
	wg.Wait()
	return want, errors.Join(errs...)
}

// loadResult is the benchmark artifact (BENCH_service_throughput.json).
type loadResult struct {
	Concurrency   int            `json:"concurrency"`
	Requests      int            `json:"requests"`
	Errors        int            `json:"errors"`
	Verified      int            `json:"verified"`
	Mismatches    int            `json:"mismatches"`
	Seconds       float64        `json:"seconds"`
	RPS           float64        `json:"requests_per_sec"`
	P50MS         float64        `json:"p50_ms"`
	P90MS         float64        `json:"p90_ms"`
	P99MS         float64        `json:"p99_ms"`
	MaxMS         float64        `json:"max_ms"`
	Instructions  uint64         `json:"sim_instructions"`
	AggregateMIPS float64        `json:"aggregate_mips"`
	Sources       map[string]int `json:"responses_by_source"`
	Metrics       map[string]any `json:"server_metrics,omitempty"`
}

// verifyResponse is the response shape braidload decodes: Stats stays raw so
// verification compares the service's exact bytes against the local run.
type verifyResponse struct {
	Source string          `json:"source"`
	Stats  json.RawMessage `json:"stats"`
}

// run sends total requests, cycling over mix, from conc clients. want, if
// not nil, holds the Stats JSON each mix request must be answered with.
func run(client *http.Client, addr string, mix []service.SimRequest, conc, total int, want [][]byte) *loadResult {
	bodies := make([][]byte, len(mix))
	for i := range mix {
		data, err := json.Marshal(&mix[i])
		if err != nil {
			log.Fatal(err)
		}
		bodies[i] = data
	}

	var (
		next      atomic.Int64
		mu        sync.Mutex
		latencies []float64
		sources   = map[string]int{}
		res       = &loadResult{Concurrency: conc, Requests: total, Sources: sources}
		wg        sync.WaitGroup
	)
	t0 := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				k := i % len(mix)
				r0 := time.Now()
				vr, err := post(client, addr, bodies[k])
				ms := float64(time.Since(r0).Nanoseconds()) / 1e6
				mu.Lock()
				latencies = append(latencies, ms)
				if err != nil {
					res.Errors++
					log.Printf("braidload: %s: %v", mixKey(&mix[k]), err)
				} else {
					sources[vr.Source]++
					if want != nil {
						res.Verified++
						if !bytes.Equal(want[k], vr.Stats) {
							res.Mismatches++
							res.Errors++
							log.Printf("braidload: %s: stats differ from local simulation", mixKey(&mix[k]))
						}
					}
					var st uarch.Stats
					if json.Unmarshal(vr.Stats, &st) == nil {
						res.Instructions += st.Retired
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Seconds = time.Since(t0).Seconds()

	sort.Float64s(latencies)
	quant := func(q float64) float64 {
		return latencies[min(int(q*float64(len(latencies))), len(latencies)-1)]
	}
	res.P50MS, res.P90MS, res.P99MS = quant(0.50), quant(0.90), quant(0.99)
	res.MaxMS = latencies[len(latencies)-1]
	if res.Seconds > 0 {
		res.RPS = float64(total) / res.Seconds
		res.AggregateMIPS = float64(res.Instructions) / res.Seconds / 1e6
	}
	return res
}

func post(client *http.Client, addr string, body []byte) (*verifyResponse, error) {
	resp, err := client.Post(addr+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var vr verifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &vr, nil
}

// scrapeMetrics pulls /metrics and keeps the counters the benchmark report
// cares about; a scrape failure degrades to nil rather than failing the run.
func scrapeMetrics(client *http.Client, addr string) map[string]any {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var all map[string]any
	if json.NewDecoder(resp.Body).Decode(&all) != nil {
		return nil
	}
	keep := map[string]any{}
	for _, k := range []string{
		"cache_hits", "cache_misses", "coalesced_total", "shed_total",
		"sim_runs_total", "simulated_mips", "faults_contained_total",
		"cycle_limit_total", "deadline_total", "latency_ms",
		"program_builds_total", "unknown_program_total",
	} {
		if v, ok := all[k]; ok {
			keep[k] = v
		}
	}
	return keep
}
