package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"braid/internal/service"
)

const (
	suiteExact   = "suite-exact"
	suiteSampled = "suite-sampled"
	braiddMixed  = "braidd-mixed"
	fleetSweep   = "fleet-sweep"
)

var workloadNames = []string{suiteExact, suiteSampled, braiddMixed, fleetSweep}

// Workload sizes at seed 0. Each repeat takes about 2–3 s on a 2-core host,
// so a 30 s run holds about ten: the host's speed drifts within seconds, and
// the host reference timed between repeats follows it only that closely
// (see hostref.go). README.md gives the reasons for each size.
const (
	// suiteDyn sizes suite-exact and fleet-sweep alike, so the fleet's fig13
	// table must equal the one in suite-exact's output byte for byte.
	suiteDyn   = 10000
	sampledDyn = 250000             // 2.5 sampling periods per benchmark, ~500 MB RSS
	sampleGeom = "100000:5000:5000" // braidbench's accuracy-harness geometry
	// jobs is braidbench's -j, braidd's -workers and the load's connection
	// count: at most two requests in flight, one per host processor.
	jobs = 2
)

// braidd-mixed replays braidload's default run: sessionRequests requests
// cycled in order over a 12-key hot set (hotProfiles × hotCores, width
// hotWidth, hotIters iterations) against a fresh braidd. That run is the
// repository's measured service traffic: BENCH_service_throughput.json
// records 500 cache hits and 12 misses. A repeat is mixedSessions such
// sessions, one braidd each.
const (
	sessionRequests = 512
	mixedSessions   = 8
	hotIters        = 60
	hotWidth        = 8
)

var (
	hotProfiles = []string{"gcc", "mcf", "gzip", "crafty", "art", "equake"}
	hotCores    = []string{"ooo", "braid"}
)

// sizeLevels are the size factors a nonzero seed picks from: held-out
// inputs (other loop counts, so other programs and results) whose run
// length stays within 1%, each with committed exact references.
var sizeLevels = []float64{0.99, 0.995, 1, 1.005, 1.01}

func sizeFactor(seed int64) float64 {
	if seed == 0 {
		return 1
	}
	return sizeLevels[splitmix(uint64(seed))%uint64(len(sizeLevels))]
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// params derives every workload input from the seed. scale is 1 except in
// the smoke test, which shrinks every workload.
type params struct {
	seed  int64
	scale float64
}

func (p params) factor() float64 { return sizeFactor(p.seed) * p.scale }

func (p params) dyn(base float64) uint64 { return dynAt(base, p.factor()) }

// dynAt is a suite's -dyn at a size factor; LoadSuite needs at least 1000.
func dynAt(base, factor float64) uint64 { return uint64(max(1000, math.Round(base*factor))) }

func (p params) iters(base int) int { return max(1, int(math.Round(float64(base)*p.factor()))) }

func (p params) sessions() int { return max(1, int(math.Round(mixedSessions*p.scale))) }

// sessionRequests is a session's length; every hot key repeats at least once.
func (p params) sessionRequests() int {
	return max(2*len(hotProfiles)*len(hotCores), int(math.Round(sessionRequests*p.scale)))
}

// mixedReq is one unique braidd request of the mixed workload.
type mixedReq struct {
	key  string
	req  service.SimRequest
	body []byte
}

// mixedStream returns one braidd-mixed session: braidload's default request
// order, the hot keys cycled profile by profile, core by core. A nonzero
// seed shuffles the order of the keys within the cycle.
func mixedStream(p params) ([]*mixedReq, error) {
	var hot []*mixedReq
	for _, prof := range hotProfiles {
		for _, core := range hotCores {
			r := &mixedReq{
				key: prof + "/" + core,
				req: service.SimRequest{Workload: prof, Iters: p.iters(hotIters), Core: core, Width: hotWidth},
			}
			var err error
			if r.body, err = json.Marshal(&r.req); err != nil {
				return nil, err
			}
			hot = append(hot, r)
		}
	}
	if p.seed != 0 {
		rng := rand.New(rand.NewSource(p.seed))
		rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	}
	stream := make([]*mixedReq, p.sessionRequests())
	for i := range stream {
		stream[i] = hot[i%len(hot)]
	}
	return stream, nil
}

// repeat is one fresh-process run of a workload.
type repeat struct {
	metrics  map[string]float64 // nil when the run failed
	wall     time.Duration
	ops      int // simulations or requests attempted
	failed   int
	problems []string
}

func (r repeat) fail(ops int, err error) repeat {
	r.metrics = nil
	r.ops, r.failed = ops, ops
	r.problems = append(r.problems, err.Error())
	return r
}

// runEnv runs untraced repeats against the built binaries.
type runEnv struct {
	o options
	p params

	refs  *references
	first map[string][32]byte // each workload's first output digest

	stream   []*mixedReq       // one braidd-mixed session
	expected map[string][]byte // Stats bytes of every hot key
}

func (e *runEnv) binary(name string) string { return filepath.Join(e.o.bin, name) }

func (e *runEnv) repeat(ctx context.Context, name string) repeat {
	switch name {
	case suiteExact:
		return e.exactRepeat(ctx)
	case suiteSampled:
		return e.sampledRepeat(ctx)
	case braiddMixed:
		return e.mixedRepeat(ctx)
	default:
		return e.fleetRepeat(ctx)
	}
}

// sameOutput checks that every repeat of a workload prints the same bytes.
func (e *runEnv) sameOutput(name string, out []byte) error {
	sum := sha256Sum(out)
	if first, ok := e.first[name]; ok && first != sum {
		return fmt.Errorf("%s: output differs between repeats", name)
	}
	e.first[name] = sum
	return nil
}

func (e *runEnv) exactRepeat(ctx context.Context) repeat {
	dyn := e.p.dyn(suiteDyn)
	t0 := time.Now()
	o, err := e.braidbench(ctx, "-j", strconv.Itoa(jobs), "-throughput", "-dyn", fmt.Sprint(dyn))
	r := repeat{wall: time.Since(t0)}
	return e.finishSuite(r, suiteExact, o, err, 0, 0, func(tables []byte, tp throughput) error {
		return e.refs.checkSuite(ctx, dyn, tables, tp)
	})
}

func (e *runEnv) sampledRepeat(ctx context.Context) repeat {
	dyn := e.p.dyn(sampledDyn)
	t0 := time.Now()
	o, err := e.braidbench(ctx, "-j", strconv.Itoa(jobs), "-throughput", "-csv", "-exp", "fig13",
		"-sample", sampleGeom, "-dyn", fmt.Sprint(dyn))
	r := repeat{wall: time.Since(t0)}
	return e.finishSuite(r, suiteSampled, o, err, 0, 0, func(tables []byte, _ throughput) error {
		_, err := e.refs.checkSampled(ctx, dyn, tables)
		return err
	})
}

func (e *runEnv) fleetRepeat(ctx context.Context) repeat {
	dyn := e.p.dyn(suiteDyn)
	t0 := time.Now()
	r := repeat{}
	var ds []*daemon
	defer func() {
		for _, d := range ds {
			d.stop()
		}
	}()
	var urls []string
	for i := 0; i < 2; i++ {
		d, err := e.startBraidd(ctx, fmt.Sprintf("fleet-%d", i))
		if err != nil {
			return r.fail(1, err)
		}
		ds = append(ds, d)
		urls = append(urls, d.url)
	}
	backends := time.Since(t0)
	o, err := e.braidbench(ctx, "-j", strconv.Itoa(jobs), "-throughput", "-exp", "fig13", "-dyn", fmt.Sprint(dyn),
		"-remote", strings.Join(urls, ","))
	var rss float64
	for _, d := range ds {
		rss += d.stop()
	}
	r.wall = time.Since(t0)
	return e.finishSuite(r, fleetSweep, o, err, backends, rss, func(tables []byte, tp throughput) error {
		return e.refs.checkFleet(ctx, dyn, tables, tp)
	})
}

// finishSuite turns one braidbench run into metrics, after checking its
// output; setup and rss add the fleet's backends.
func (e *runEnv) finishSuite(r repeat, name string, o *suiteOutput, err error,
	setup time.Duration, rss float64, check func([]byte, throughput) error) repeat {
	if err != nil {
		return r.fail(1, err)
	}
	tables, tp, err := splitThroughput(o.stdout)
	if err != nil {
		return r.fail(1, err)
	}
	ops := int(tp.Simulations)
	if err := check(tables, tp); err != nil {
		return r.fail(ops, err)
	}
	if err := e.sameOutput(name, tables); err != nil {
		return r.fail(ops, err)
	}
	window := o.done[len(o.done)-1].Sub(o.ready).Seconds()
	var lat []float64
	prev := o.ready
	for _, d := range o.done {
		lat = append(lat, float64(d.Sub(prev).Nanoseconds())/1e6)
		prev = d
	}
	r.ops = ops
	r.metrics = map[string]float64{
		"setup_s":        (setup + o.ready.Sub(o.start)).Seconds(),
		"sim_mips":       float64(tp.Detailed) / window / 1e6,
		"effective_mips": float64(tp.Instructions) / window / 1e6,
		"ops_per_s":      float64(tp.Simulations) / window,
		"p50_ms":         percentile(lat, 0.50),
		"p99_ms":         percentile(lat, 0.99),
		"rss_peak_mb":    o.rssMB + rss,
	}
	return r
}

// mixedRepeat runs the braidd-mixed sessions one after another, each against
// a fresh braidd, and pools their requests.
func (e *runEnv) mixedRepeat(ctx context.Context) repeat {
	r := repeat{ops: e.p.sessions() * len(e.stream)}
	t0 := time.Now()
	var (
		setup, lat, rss []float64
		window          time.Duration
		detailed        float64
		instrs          uint64
	)
	for s := 0; s < e.p.sessions(); s++ {
		d, err := e.startBraidd(ctx, "mixed")
		if err != nil {
			return r.fail(r.ops, err)
		}
		client := &http.Client{Timeout: time.Minute, Transport: http.DefaultTransport.(*http.Transport).Clone()}
		lr := runLoad(ctx, client, d.url, e.stream)
		sm, err := scrapeMetrics(ctx, client, d.url)
		client.CloseIdleConnections()
		rss = append(rss, d.stop())
		if err != nil {
			return r.fail(r.ops, err)
		}
		n, failed, problems := lr.verify(e.stream, e.expected)
		r.failed += failed
		r.problems = append(r.problems, problems...)
		setup = append(setup, d.ready.Sub(d.start).Seconds())
		lat = append(lat, lr.lat...)
		window += lr.window
		detailed += sm.Detailed
		instrs += n
	}
	r.wall = time.Since(t0)
	if r.failed > 0 {
		return r
	}
	r.metrics = map[string]float64{
		"setup_s":        median(setup),
		"sim_mips":       detailed / window.Seconds() / 1e6,
		"effective_mips": float64(instrs) / window.Seconds() / 1e6,
		"ops_per_s":      float64(len(lat)) / window.Seconds(),
		"p50_ms":         percentile(lat, 0.50),
		"p99_ms":         percentile(lat, 0.99),
		"rss_peak_mb":    median(rss),
	}
	return r
}

// suiteOutput is one braidbench run: stdout, and when its stderr progress
// lines arrived.
type suiteOutput struct {
	stdout []byte
	start  time.Time
	ready  time.Time   // "suite ready"
	done   []time.Time // one per "<experiment> done in"
	rssMB  float64
}

func (e *runEnv) braidbench(ctx context.Context, args ...string) (*suiteOutput, error) {
	cmd := exec.CommandContext(ctx, e.binary("braidbench"), args...)
	cmd.Dir = e.o.work // where crash artifacts would land
	cmd.SysProcAttr = childAttr()
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	o := &suiteOutput{start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting braidbench: %w", err)
	}
	var tail []string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		now, line := time.Now(), sc.Text()
		switch {
		case strings.HasPrefix(line, "braidbench: suite ready"):
			o.ready = now
		case strings.Contains(line, " done in "):
			o.done = append(o.done, now)
		}
		tail = append(tail, line)
		if len(tail) > 8 {
			tail = tail[1:]
		}
	}
	err = cmd.Wait()
	o.stdout = stdout.Bytes()
	o.rssMB = peakRSSMB(cmd.ProcessState)
	if err != nil {
		return nil, fmt.Errorf("braidbench %s: %w\n%s", strings.Join(args, " "), err, strings.Join(tail, "\n"))
	}
	if o.ready.IsZero() || len(o.done) == 0 {
		return nil, fmt.Errorf("braidbench %s: no progress lines on stderr", strings.Join(args, " "))
	}
	return o, nil
}

// throughput is braidbench's -throughput summary.
type throughput struct {
	Simulations  uint64 `json:"simulations"`
	Instructions uint64 `json:"instructions"`
	Detailed     uint64 `json:"detailed_instructions"`
	Cycles       uint64 `json:"cycles"`
}

// splitThroughput separates braidbench's tables from the -throughput JSON
// that follows them.
func splitThroughput(stdout []byte) ([]byte, throughput, error) {
	var tp throughput
	i := bytes.LastIndex(stdout, []byte("{\n  \"simulations\""))
	if i < 0 {
		return nil, tp, errors.New("braidbench printed no -throughput summary")
	}
	if err := json.Unmarshal(stdout[i:], &tp); err != nil {
		return nil, tp, fmt.Errorf("parsing -throughput summary: %w", err)
	}
	return stdout[:i], tp, nil
}

// daemon is one running braidd.
type daemon struct {
	url          string
	cmd          *exec.Cmd
	log          *os.File
	exited       chan struct{}
	start, ready time.Time

	once  sync.Once
	rssMB float64
}

// startBraidd launches braidd on a free loopback port and waits for its
// first /healthz 200; a port taken between choosing and binding is retried.
func (e *runEnv) startBraidd(ctx context.Context, name string) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = e.launchBraidd(name); err != nil {
			return nil, err
		}
		if err = d.waitReady(ctx); err == nil {
			return d, nil
		}
		d.stop()
		if ctx.Err() != nil {
			break
		}
	}
	return nil, err
}

func (e *runEnv) launchBraidd(name string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(e.o.work, "braidd-"+name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.binary("braidd"), "-addr", addr, "-workers", strconv.Itoa(jobs))
	cmd.Dir = e.o.work
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childAttr()
	d := &daemon{url: "http://" + addr, cmd: cmd, log: logf, exited: make(chan struct{}), start: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting braidd: %w", err)
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(15 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Now()
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("braidd %s exited before it was ready (see %s)", d.url, d.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("braidd %s not ready after 15s", d.url)
		}
	}
}

// stop drains braidd with SIGTERM, as an operator would, kills it if it
// hangs, and returns its peak RSS. Safe to call more than once.
func (d *daemon) stop() float64 {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
		d.log.Close()
		d.rssMB = peakRSSMB(d.cmd.ProcessState)
	})
	return d.rssMB
}

// loadResult is one closed-loop pass over a request stream.
type loadResult struct {
	lat      []float64 // ms, by request index
	bodies   [][]byte  // nil where the request failed
	errs     []string
	window   time.Duration
	failures atomic.Int64
}

// runLoad sends stream in order over jobs connections, each sending its next
// request when the previous answer arrives.
func runLoad(ctx context.Context, client *http.Client, url string, stream []*mixedReq) *loadResult {
	lr := &loadResult{lat: make([]float64, len(stream)), bodies: make([][]byte, len(stream))}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		errMu sync.Mutex
	)
	t0 := time.Now()
	for c := 0; c < jobs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) || ctx.Err() != nil {
					return
				}
				r0 := time.Now()
				body, err := post(ctx, client, url+"/v1/simulate", stream[i].body)
				lr.lat[i] = float64(time.Since(r0).Nanoseconds()) / 1e6
				if err != nil {
					lr.failures.Add(1)
					errMu.Lock()
					if len(lr.errs) < 5 {
						lr.errs = append(lr.errs, fmt.Sprintf("%s: %v", stream[i].key, err))
					}
					errMu.Unlock()
					continue
				}
				lr.bodies[i] = body
			}
		}()
	}
	wg.Wait()
	lr.window = time.Since(t0)
	return lr
}

func post(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
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
	return data, nil
}

// verify counts the instructions the responses report and compares every
// response's Stats bytes with the local simulation's.
func (lr *loadResult) verify(stream []*mixedReq, expected map[string][]byte) (instrs uint64, failed int, problems []string) {
	failed = int(lr.failures.Load())
	problems = append(problems, lr.errs...)
	for i, body := range lr.bodies {
		if body == nil {
			continue
		}
		var resp struct {
			Stats json.RawMessage `json:"stats"`
		}
		var st struct{ Retired uint64 }
		if json.Unmarshal(body, &resp) != nil || json.Unmarshal(resp.Stats, &st) != nil {
			failed++
			problems = append(problems, stream[i].key+": malformed response")
			continue
		}
		instrs += st.Retired
		if !bytes.Equal(expected[stream[i].key], resp.Stats) {
			failed++
			if len(problems) < 10 {
				problems = append(problems, stream[i].key+": Stats differ from the local simulation")
			}
		}
	}
	return instrs, failed, problems
}

// serverMetrics is the part of braidd's /metrics the benchmark reads.
type serverMetrics struct {
	CacheHits   float64 `json:"cache_hits"`
	CacheMisses float64 `json:"cache_misses"`
	Coalesced   float64 `json:"coalesced_total"`
	SimRuns     float64 `json:"sim_runs_total"`
	Detailed    float64 `json:"sim_detailed_instructions_total"`
	Shed        float64 `json:"shed_total"`
}

func scrapeMetrics(ctx context.Context, client *http.Client, url string) (serverMetrics, error) {
	var m serverMetrics
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return m, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

// childAttr kills a child if the benchmark dies first, so no braidd
// outlives it. Linux only, like ru_maxrss in KiB below.
func childAttr() *syscall.SysProcAttr { return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} }

func peakRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
