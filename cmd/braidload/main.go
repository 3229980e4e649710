// Command braidload drives one or more running braidd backends with a
// concurrent request mix and reports service-level throughput: requests/sec,
// latency quantiles, and aggregate simulated MIPS. With -verify it also
// simulates every unique request locally and demands bit-identical Stats
// JSON from the service — the determinism contract the result cache depends
// on.
//
// With a single -addr, requests go straight at the backend (the classic
// single-server load test). With a comma-separated list, braidload drives
// the internal/remote pool: each program's points route to one backend by
// rendezvous hash, retry with backoff across backends, and optionally hedge
// stragglers with -hedge — the same path braidbench -remote uses for
// distributed sweeps.
//
//	braidd -addr 127.0.0.1:8080 &
//	braidload -addr http://127.0.0.1:8080 -c 32 -n 512 -verify -out BENCH_service_throughput.json
//
//	braidd -addr 127.0.0.1:8091 & braidd -addr 127.0.0.1:8092 &
//	braidload -addr 127.0.0.1:8091,127.0.0.1:8092 -hedge -verify -out BENCH_remote_throughput.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
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

	"braid/internal/isa"
	"braid/internal/remote"
	"braid/internal/service"
	"braid/internal/uarch"
)

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8080", "comma-separated braidd base URLs (2+: drive the routing pool)")
		conc      = flag.Int("c", 32, "concurrent clients")
		total     = flag.Int("n", 512, "total requests")
		iters     = flag.Int("iters", 60, "workload iterations per request")
		width     = flag.Int("width", 8, "issue width")
		cores     = flag.String("cores", "ooo,braid", "comma-separated cores in the mix")
		workloads = flag.String("workloads", "gcc,mcf,gzip,crafty,art,equake", "comma-separated workload profiles")
		timeout   = flag.Duration("timeout", 120*time.Second, "per-request client timeout")
		wait      = flag.Duration("wait", 15*time.Second, "how long to wait for /healthz before starting")
		verify    = flag.Bool("verify", false, "simulate each unique request locally and demand bit-identical Stats")
		hedge     = flag.Bool("hedge", false, "hedge slow requests onto a second backend (pool mode)")
		probe     = flag.Duration("probe", 0, "background health-probe interval; ejects backends that fail /healthz or the known-answer canary (pool mode; 0: off)")
		out       = flag.String("out", "", "write the benchmark JSON here as well as stdout")
	)
	flag.Parse()

	mix := buildMix(splitList(*workloads), splitList(*cores), *width, *iters)
	if len(mix) == 0 {
		log.Fatal("braidload: empty request mix")
	}
	addrs := splitList(*addr)
	if len(addrs) == 0 {
		log.Fatal("braidload: no -addr")
	}
	client := &http.Client{Timeout: *timeout}

	var res *loadResult
	if len(addrs) > 1 {
		res = runPoolMode(addrs, mix, *conc, *total, *verify, *hedge, *timeout, *wait, *probe, client)
	} else {
		if err := waitHealthy(client, addrs[0], *wait); err != nil {
			log.Fatalf("braidload: %v", err)
		}
		var expected map[string][]byte
		if *verify {
			var err error
			if expected, err = simulateLocally(buildPrograms(mix)); err != nil {
				log.Fatalf("braidload: local verification run: %v", err)
			}
		}
		res = run(client, addrs[0], mix, *conc, *total, expected)
		res.Metrics = map[string]any{addrs[0]: scrapeMetrics(client, addrs[0])}
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

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// mixItem is one unique request shape; the load is total requests cycled
// over the mix, so every shape repeats and exercises the result cache.
type mixItem struct {
	req service.SimRequest
	key string
}

func buildMix(profiles, cores []string, width, iters int) []mixItem {
	var mix []mixItem
	for _, prof := range profiles {
		for _, core := range cores {
			req := service.SimRequest{Workload: prof, Iters: iters, Core: core, Width: width}
			mix = append(mix, mixItem{req: req, key: prof + "/" + core})
		}
	}
	return mix
}

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

// builtItem is one unique request resolved to the exact program image and
// configuration the service would build for it — what the pool routes on and
// what local verification simulates.
type builtItem struct {
	key  string
	prog *isa.Program
	cfg  uarch.Config
}

// buildPrograms resolves every mix item through the same Build path the
// service uses. Build is deterministic, so the client-side program is
// byte-identical to the one the server would construct from the name.
func buildPrograms(mix []mixItem) []builtItem {
	items := make([]builtItem, len(mix))
	var wg sync.WaitGroup
	for i, it := range mix {
		wg.Add(1)
		go func(i int, it mixItem) {
			defer wg.Done()
			b, err := service.Build(&it.req, service.Limits{})
			if err != nil {
				log.Fatalf("braidload: building %s: %v", it.key, err)
			}
			items[i] = builtItem{key: it.key, prog: b.Program, cfg: b.Config}
		}(i, it)
	}
	wg.Wait()
	return items
}

// simulateLocally simulates every unique item in-process and records the
// exact Stats JSON a correct response must carry.
func simulateLocally(items []builtItem) (map[string][]byte, error) {
	expected := make(map[string][]byte, len(items))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errc := make(chan error, len(items))
	for _, it := range items {
		wg.Add(1)
		go func(it builtItem) {
			defer wg.Done()
			st, err := uarch.Simulate(it.prog, it.cfg)
			if err != nil {
				errc <- fmt.Errorf("%s: %w", it.key, err)
				return
			}
			data, err := json.Marshal(st)
			if err != nil {
				errc <- err
				return
			}
			mu.Lock()
			expected[it.key] = data
			mu.Unlock()
		}(it)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return nil, err
	}
	return expected, nil
}

// loadResult is the benchmark artifact (BENCH_service_throughput.json,
// BENCH_remote_throughput.json). server_metrics is keyed by backend URL.
type loadResult struct {
	Backends      []string       `json:"backends,omitempty"`
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
	ByBackend     map[string]int `json:"responses_by_backend,omitempty"`
	Pool          *remote.Stats  `json:"pool,omitempty"`
	Metrics       map[string]any `json:"server_metrics,omitempty"`
}

// runPoolMode drives the request mix through the internal/remote pool:
// per-program rendezvous routing, retry/failover, and optional hedging across
// every backend — the distributed analogue of the single-server burst.
func runPoolMode(addrs []string, mix []mixItem, conc, total int, verify, hedge bool, timeout, wait, probe time.Duration, client *http.Client) *loadResult {
	ctx := context.Background()
	pool, err := remote.NewPool(remote.Options{
		Backends: addrs,
		Hedge:    hedge,
		Timeout:  timeout,
	})
	if err != nil {
		log.Fatalf("braidload: %v", err)
	}
	if probe > 0 {
		stop := pool.StartProber(ctx, probe)
		defer stop()
	}
	deadline := time.Now().Add(wait)
	for {
		var down []string
		down, err = pool.Ping(ctx)
		if err == nil && len(down) == 0 {
			break
		}
		if time.Now().After(deadline) {
			if err != nil {
				log.Fatalf("braidload: %v", err)
			}
			log.Printf("braidload: backends still down after %s (will fail over): %s", wait, strings.Join(down, ","))
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	items := buildPrograms(mix)
	var expected map[string][]byte
	if verify {
		if expected, err = simulateLocally(items); err != nil {
			log.Fatalf("braidload: local verification run: %v", err)
		}
	}

	var (
		next      atomic.Int64
		mu        sync.Mutex
		latencies []float64
		sources   = map[string]int{}
		byBackend = map[string]int{}
		res       = &loadResult{
			Backends: pool.Backends(), Concurrency: conc, Requests: total,
			Sources: sources, ByBackend: byBackend,
		}
		wg sync.WaitGroup
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
				it := items[i%len(items)]
				r0 := time.Now()
				r, err := pool.SimulateFull(ctx, it.prog, it.cfg)
				ms := float64(time.Since(r0).Nanoseconds()) / 1e6
				mu.Lock()
				latencies = append(latencies, ms)
				if err != nil {
					res.Errors++
					log.Printf("braidload: %s: %v", it.key, err)
				} else {
					sources[r.Source]++
					byBackend[r.Backend]++
					if want, ok := expected[it.key]; ok {
						res.Verified++
						if !bytes.Equal(want, r.RawStats) {
							res.Mismatches++
							res.Errors++
							log.Printf("braidload: %s: stats differ from local simulation", it.key)
						}
					}
					res.Instructions += r.Stats.Retired
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Seconds = time.Since(t0).Seconds()
	finish(res, latencies, total)
	ps := pool.Snapshot()
	res.Pool = &ps
	res.Metrics = map[string]any{}
	for _, b := range pool.Backends() {
		if m := scrapeMetrics(client, b); m != nil {
			res.Metrics[b] = m
		}
	}
	return res
}

// verifyResponse is the response shape braidload decodes: Stats stays raw so
// verification compares the service's exact bytes against the local run.
type verifyResponse struct {
	Source string          `json:"source"`
	Stats  json.RawMessage `json:"stats"`
}

func run(client *http.Client, addr string, mix []mixItem, conc, total int, expected map[string][]byte) *loadResult {
	bodies := make([][]byte, len(mix))
	for i, it := range mix {
		data, err := json.Marshal(&it.req)
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
				it := mix[i%len(mix)]
				r0 := time.Now()
				vr, err := post(client, addr, bodies[i%len(mix)])
				ms := float64(time.Since(r0).Nanoseconds()) / 1e6
				mu.Lock()
				latencies = append(latencies, ms)
				if err != nil {
					res.Errors++
					log.Printf("braidload: %s: %v", it.key, err)
				} else {
					sources[vr.Source]++
					if want, ok := expected[it.key]; ok {
						res.Verified++
						if !bytes.Equal(want, vr.Stats) {
							res.Mismatches++
							res.Errors++
							log.Printf("braidload: %s: stats differ from local simulation", it.key)
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
	finish(res, latencies, total)
	return res
}

// finish fills in the latency quantiles and rate figures of a completed run.
func finish(res *loadResult, latencies []float64, total int) {
	sort.Float64s(latencies)
	quant := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(q * float64(len(latencies)))
		if i >= len(latencies) {
			i = len(latencies) - 1
		}
		return latencies[i]
	}
	res.P50MS, res.P90MS, res.P99MS = quant(0.50), quant(0.90), quant(0.99)
	if n := len(latencies); n > 0 {
		res.MaxMS = latencies[n-1]
	}
	if res.Seconds > 0 {
		res.RPS = float64(total) / res.Seconds
		res.AggregateMIPS = float64(res.Instructions) / res.Seconds / 1e6
	}
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
