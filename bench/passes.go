package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"braid/internal/braid"
	"braid/internal/experiments"
	"braid/internal/interp"
	"braid/internal/isa"
	"braid/internal/remote"
	"braid/internal/service"
	"braid/internal/uarch"
	"braid/internal/workload"
)

// passEnv carries a traced pass's configuration to the child process that
// runs it. Each pass gets a fresh process, like the untraced repeats, so the
// simulator's process-wide replay cache does not carry over between them.
const passEnv = "BRAID_BENCH_PASS"

type passConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Root     string  `json:"root"`
}

// passResult is what a traced pass reports to the parent.
type passResult struct {
	Workload  string             `json:"workload"`
	WallS     float64            `json:"wall_s"` // the pass's root span
	Spans     []*span            `json:"spans"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
}

// runPassChild runs one traced pass in a child process of this executable.
func runPassChild(ctx context.Context, cfg passConfig) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), passEnv+"="+string(data))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("traced %s pass: %w", cfg.Workload, err)
	}
	var res passResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("traced %s pass: %w", cfg.Workload, err)
	}
	return &res, nil
}

// passMain is the child side of runPassChild.
func passMain(cfgJSON string) int {
	var cfg passConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", passEnv, err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runPass(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: traced %s pass: %v\n", cfg.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func runPass(ctx context.Context, cfg passConfig) (*passResult, error) {
	refs, err := loadReferences(cfg.Root)
	if err != nil {
		return nil, err
	}
	p := params{seed: cfg.Seed, scale: cfg.Scale}
	tr := newTracer()
	res := &passResult{Workload: cfg.Workload, Metrics: map[string]float64{}}
	var root *span
	switch cfg.Workload {
	case suiteExact:
		root, err = exactPass(ctx, tr, p, refs, res)
	case suiteSampled:
		root, err = sampledPass(ctx, tr, p, refs, res)
	case braiddMixed:
		root, err = mixedPass(ctx, tr, p, res)
	case fleetSweep:
		root, err = fleetPass(ctx, tr, p, refs, res)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return nil, err
	}
	res.WallS = root.dur() / 1e6
	res.Spans = tr.snapshot()
	return res, nil
}

// sweep runs experiments in order the way braidbench does, one span per
// experiment, and returns what braidbench prints for them (text tables, or
// CSV for csv). rn, when set, is the suite's installed runner.
func sweep(tr *tracer, parent int64, w *experiments.Workloads, exps []experiments.Experiment, rn *timedRunner, csv bool) ([]byte, error) {
	var out bytes.Buffer
	for _, e := range exps {
		s := tr.start(parent, "experiments", "experiments."+e.ID, "")
		if rn != nil {
			rn.parent.Store(s.ID)
		}
		res, err := e.Run(w)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		if csv {
			fmt.Fprintf(&out, "# %s: %s\n%s\n", res.ID, res.Title, res.CSV())
		} else {
			out.WriteString(res.String())
			out.WriteByte('\n')
		}
	}
	if f := w.Failures(); len(f) > 0 {
		return nil, fmt.Errorf("%d design points failed, first: %v", len(f), f[0])
	}
	return out.Bytes(), nil
}

// loadSuite is experiments.LoadSuiteCtx inside a span.
func loadSuite(ctx context.Context, tr *tracer, parent int64, dyn uint64) (*experiments.Workloads, error) {
	var w *experiments.Workloads
	err := tr.do(parent, "experiments", "experiments.LoadSuiteCtx", func() (err error) {
		w, err = experiments.LoadSuiteCtx(ctx, dyn, jobs)
		return err
	})
	return w, err
}

// exactPass is suite-exact in-process: uarch time per instruction by core,
// and the experiments layer's fan-out around it.
func exactPass(ctx context.Context, tr *tracer, p params, refs *references, res *passResult) (*span, error) {
	dyn := p.dyn(suiteDyn)
	root := tr.start(0, "bench", suiteExact, "")
	w, err := loadSuite(ctx, tr, root.ID, dyn)
	if err != nil {
		return nil, err
	}
	rn := &timedRunner{tr: tr}
	w.SetRunner(rn)
	out, err := sweep(tr, root.ID, w, experiments.All(), rn, false)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	res.Attempted = int(w.SimRuns())
	err = refs.checkSuite(ctx, dyn, out, throughput{w.SimRuns(), w.SimInstrs(), w.SimDetailedInstrs(), w.SimCycles()})
	if err != nil {
		res.Failed = res.Attempted
		res.Problems = append(res.Problems, err.Error())
	}

	m := res.Metrics
	for core, name := range map[uarch.CoreKind]string{
		uarch.CoreInOrder: "inorder", uarch.CoreDepSteer: "depsteer",
		uarch.CoreOutOfOrder: "ooo", uarch.CoreBraid: "braid",
	} {
		if c := rn.cores[core]; c != nil && c.retired > 0 {
			m["uarch.exact_ns_per_instr."+name] = 1e3 * c.us / float64(c.retired)
		}
	}
	t := rn.total()
	m["uarch.exact_ns_per_cycle"] = 1e3 * t.us / float64(t.cycles)
	m["uarch.sim_calls"] = float64(t.calls)
	m["experiments.sim_runs"] = float64(w.SimRuns())

	spans := tr.snapshot()
	kids := children(spans)
	var wall, busy, selfUS, tailUS float64
	for _, s := range kids[root.ID] {
		if s.Name == "experiments.LoadSuiteCtx" {
			continue
		}
		wall += s.dur()
		for _, k := range kids[s.ID] {
			busy += k.dur()
		}
		for running, us := range concurrency(s, kids[s.ID]) {
			switch {
			case running == 0:
				selfUS += us
			case running < jobs:
				tailUS += us
			}
		}
	}
	m["experiments.fanout_eff"] = busy / (wall * jobs)
	m["experiments.self_s"] = selfUS / 1e6
	m["experiments.tail_idle_s"] = tailUS / 1e6
	m["trace.coverage"] = 1 - self(root, kids[root.ID])/root.dur()
	return root, nil
}

// sampledPass is suite-sampled in-process. Before the sweep it calls suite
// preparation's functions directly, one span each, and simulates every
// program cold then warm to separate replay-trace construction, so the
// sweep itself runs on warm traces.
func sampledPass(ctx context.Context, tr *tracer, p params, refs *references, res *passResult) (*span, error) {
	dyn := p.dyn(sampledDyn)
	sp, err := uarch.ParseSampling(sampleGeom)
	if err != nil {
		return nil, err
	}
	root := tr.start(0, "bench", suiteSampled, "")
	w, err := loadSuite(ctx, tr, root.ID, dyn)
	if err != nil {
		return nil, err
	}

	probe := tr.start(root.ID, "bench", "prepare probe", "")
	for _, b := range w.Benches {
		orig, braided, err := prepareTraced(tr, probe.ID, b.Profile, dyn)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		// The probe must build the very programs the suite simulates, or its
		// layer times describe other work.
		for _, pair := range [][2]*isa.Program{{orig, b.Orig}, {braided, b.Braided}} {
			same, err := sameImage(pair[0], pair[1])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			if !same {
				res.Failed++
				res.Problems = append(res.Problems, b.Name+": the preparation probe built other programs than experiments.LoadSuiteCtx")
			}
		}
	}
	tr.end(probe)

	replay := tr.start(root.ID, "bench", "replay probe", "")
	type point struct {
		p   *isa.Program
		cfg uarch.Config
	}
	var pts []point
	for _, b := range w.Benches {
		pts = append(pts, point{b.Orig, uarch.OutOfOrderConfig(8)}, point{b.Braided, uarch.BraidConfig(8)})
	}
	pass := func(name string) (float64, error) {
		var us float64
		for _, pt := range pts {
			s := tr.start(replay.ID, "uarch", name, "")
			_, _, err := uarch.SimulateSampled(ctx, pt.p, pt.cfg, sp)
			tr.end(s)
			if err != nil {
				return 0, err
			}
			us += s.dur()
		}
		return us, nil
	}
	heap0 := liveHeap()
	cold, err := pass("uarch.SimulateSampled cold")
	if err != nil {
		return nil, err
	}
	heap1 := liveHeap()
	warm, err := pass("uarch.SimulateSampled warm")
	if err != nil {
		return nil, err
	}
	tr.end(replay)

	w.SetSampling(sp)
	rn := &timedRunner{tr: tr}
	w.SetRunner(rn)
	fig13, _ := experiments.ByID("fig13")
	out, err := sweep(tr, root.ID, w, []experiments.Experiment{fig13}, rn, true)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	res.Attempted = int(w.SimRuns())
	errPct, err := refs.checkSampled(ctx, dyn, out)
	if err != nil {
		res.Failed = res.Attempted
		res.Problems = append(res.Problems, err.Error())
	}

	m := res.Metrics
	spans := tr.snapshot()
	m["workload.generate_ms"] = mean(durationsMS(spans, "workload.Generate"))
	m["braid.compile_ms"] = mean(durationsMS(spans, "braid.Compile"))
	m["interp.prepare_s"] = summarize(spans)["interp"].TotalS
	m["uarch.replay_build_s"] = (cold - warm) / 1e6
	m["uarch.replay_mb"] = (float64(heap1) - float64(heap0)) / (1 << 20)
	t := rn.total()
	m["uarch.sampled_ns_per_instr"] = 1e3 * t.us / float64(t.retired)
	m["uarch.detailed_frac"] = float64(t.detailed) / float64(t.retired)
	m["uarch.sampled_err_pct"] = errPct
	return root, nil
}

// prepareTraced repeats experiments.prepare's calls for one profile, one
// span per call, so suite preparation splits into its layers. It returns
// the original and braided programs it built, for comparison with the
// suite's.
func prepareTraced(tr *tracer, parent int64, prof workload.Profile, dyn uint64) (orig, braided *isa.Program, err error) {
	const probeIters = 8
	var (
		probe *isa.Program
		res   *braid.Result
		fs    interp.FinalState
	)
	if err := tr.do(parent, "workload", "workload.Generate", func() (err error) {
		probe, err = workload.Generate(prof, probeIters)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := tr.do(parent, "interp", "interp.RunProgram", func() (err error) {
		fs, err = interp.RunProgram(probe, 10_000_000)
		return err
	}); err != nil {
		return nil, nil, err
	}
	iters := min(max(int(dyn/max(fs.Steps/probeIters, 1)), 4), isa.ImmMax)
	if err := tr.do(parent, "workload", "workload.Generate", func() (err error) {
		orig, err = workload.Generate(prof, iters)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := tr.do(parent, "braid", "braid.Compile", func() (err error) {
		res, err = braid.Compile(orig, braid.Options{})
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := tr.do(parent, "interp", "interp.Machine.Run dynamic stats", func() error {
		ds := braid.NewDynamicStats(res)
		_, err := interp.New(res.Prog).Run(50_000_000, func(si *interp.StepInfo) { ds.OnRetire(si.Index) })
		return err
	}); err != nil {
		return nil, nil, err
	}
	err = tr.do(parent, "interp", "interp.Characterize", func() error {
		_, err := interp.Characterize(orig, 50_000_000)
		return err
	})
	return orig, res.Prog, err
}

// sameImage reports whether two programs encode to the same program image.
func sameImage(a, b *isa.Program) (bool, error) {
	var ia, ib bytes.Buffer
	if err := isa.WriteImage(&ia, a); err != nil {
		return false, err
	}
	if err := isa.WriteImage(&ib, b); err != nil {
		return false, err
	}
	return bytes.Equal(ia.Bytes(), ib.Bytes()), nil
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// serve runs h, wrapped in handler spans, on a loopback listener.
func serve(tr *tracer, h http.Handler) (url string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: tr.handler(h), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		srv.Serve(l)
		close(done)
	}()
	return "http://" + l.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

func newService() *service.Server {
	// braidd's defaults at -workers 2, its access log discarded.
	return service.New(service.Config{Workers: jobs, AccessLog: io.Discard})
}

// mixedPass is braidd-mixed against in-process services, a fresh one per
// session: handler time per request paired with the client's, the servers'
// counters, and the live heap the closed sessions leave behind per cache
// miss.
func mixedPass(ctx context.Context, tr *tracer, p params, res *passResult) (*span, error) {
	stream, err := mixedStream(p)
	if err != nil {
		return nil, err
	}
	expected, err := expectedStats(ctx, nil, stream)
	if err != nil {
		return nil, err
	}
	heap0 := liveHeap()
	root := tr.start(0, "bench", braiddMixed, "")
	var sm serverMetrics
	for s := 0; s < p.sessions(); s++ {
		sess := tr.start(root.ID, "bench", "session", "")
		url, stop, err := serve(tr, newService().Handler())
		if err != nil {
			return nil, err
		}
		client := &http.Client{Timeout: time.Minute, Transport: &tracedTransport{
			tr: tr, base: http.DefaultTransport.(*http.Transport).Clone(), layer: "bench", name: "client.request",
		}}
		lr := runLoad(withParent(ctx, sess.ID), client, url, stream)
		ssm, err := scrapeMetrics(withParent(ctx, sess.ID), client, url)
		client.CloseIdleConnections()
		stop()
		tr.end(sess)
		if err != nil {
			return nil, err
		}
		_, failed, problems := lr.verify(stream, expected)
		res.Attempted += len(stream)
		res.Failed += failed
		res.Problems = append(res.Problems, problems...)
		sm.CacheHits += ssm.CacheHits
		sm.CacheMisses += ssm.CacheMisses
		sm.Coalesced += ssm.Coalesced
		sm.SimRuns += ssm.SimRuns
		sm.Shed += ssm.Shed
	}
	tr.end(root)
	heap1 := liveHeap()
	// Resolving the keys again times service.Build warm, as the hit path
	// runs it; the first resolution above ran cold.
	if _, err := expectedStats(ctx, tr, stream); err != nil {
		return nil, err
	}

	m := res.Metrics
	spans := tr.snapshot()
	handler := durationsMS(spans, "service.handler /v1/simulate")
	m["service.build_ms"] = mean(durationsMS(spans, "service.Build"))
	m["service.handler_ms.p50"] = percentile(handler, 0.50)
	m["service.handler_ms.p99"] = percentile(handler, 0.99)
	m["service.hit_ratio"] = sm.CacheHits / (sm.CacheHits + sm.CacheMisses + sm.Coalesced)
	m["service.sim_runs"] = sm.SimRuns
	m["service.shed"] = sm.Shed
	// The pass's own spans, about 300 bytes per request, stay in the heap too.
	m["service.heap_mb_per_miss"] = (float64(heap1) - float64(heap0)) / (1 << 20) / max(sm.CacheMisses, 1)
	return root, nil
}

// expectedStats resolves every braidd key of stream through service.Build,
// as the server does, and simulates it locally; a nil tracer times nothing.
func expectedStats(ctx context.Context, tr *tracer, stream []*mixedReq) (map[string][]byte, error) {
	checks := tr.start(0, "bench", "local checks", "")
	defer tr.end(checks)
	out := map[string][]byte{}
	for _, r := range stream {
		if out[r.key] != nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var b *service.Built
		if err := tr.do(checks.ID, "service", "service.Build", func() (err error) {
			b, err = service.Build(&r.req, service.Limits{})
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", r.key, err)
		}
		var st *uarch.Stats
		if err := tr.do(checks.ID, "uarch", "uarch.Simulate", func() (err error) {
			st, err = uarch.Simulate(b.Program, b.Config)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", r.key, err)
		}
		data, err := json.Marshal(st)
		if err != nil {
			return nil, err
		}
		out[r.key] = data
	}
	return out, nil
}

// fleetPass is fleet-sweep against two in-process services through the
// remote pool: each HTTP attempt is paired with its handler span, so client
// latency splits into server time and transport.
func fleetPass(ctx context.Context, tr *tracer, p params, refs *references, res *passResult) (*span, error) {
	dyn := p.dyn(suiteDyn)
	root := tr.start(0, "bench", fleetSweep, "")
	var urls []string
	for i := 0; i < 2; i++ {
		url, stop, err := serve(tr, newService().Handler())
		if err != nil {
			return nil, err
		}
		defer stop()
		urls = append(urls, url)
	}
	pool, err := remote.NewPool(remote.Options{Backends: urls, Client: &http.Client{Transport: &tracedTransport{
		tr: tr, base: http.DefaultTransport.(*http.Transport).Clone(), layer: "remote", name: "remote.attempt",
	}}})
	if err != nil {
		return nil, err
	}
	if _, err := pool.Ping(withParent(ctx, root.ID)); err != nil {
		return nil, err
	}
	w, err := loadSuite(ctx, tr, root.ID, dyn)
	if err != nil {
		return nil, err
	}
	rn := &timedRunner{tr: tr, pool: pool}
	w.SetRunner(rn)
	out, err := sweep(tr, root.ID, w, fleetExps(), rn, false)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	res.Attempted = int(w.SimRuns())
	err = refs.checkFleet(ctx, dyn, out, throughput{w.SimRuns(), w.SimInstrs(), w.SimDetailedInstrs(), w.SimCycles()})
	if err != nil {
		res.Failed = res.Attempted
		res.Problems = append(res.Problems, err.Error())
	}

	m := res.Metrics
	spans := tr.snapshot()
	kids := children(spans)
	var attempt, server, transport []float64
	for _, s := range spans {
		if s.Name != "remote.attempt /v1/simulate" {
			continue
		}
		attempt = append(attempt, s.dur()/1e3)
		for _, h := range kids[s.ID] {
			server = append(server, h.dur()/1e3)
			transport = append(transport, (s.dur()-h.dur())/1e3)
		}
	}
	m["remote.attempt_ms.p50"] = percentile(attempt, 0.50)
	m["remote.attempt_ms.p99"] = percentile(attempt, 0.99)
	m["remote.server_ms.p50"] = percentile(server, 0.50)
	m["remote.transport_ms.p50"] = percentile(transport, 0.50)
	m["remote.transport_ms.p99"] = percentile(transport, 0.99)
	snap := pool.Snapshot()
	var total, top uint64
	for _, n := range snap.PerBackend {
		total += n
		top = max(top, n)
	}
	m["remote.backend_max_share"] = float64(top) / float64(max(total, 1))
	m["remote.failed_attempts"] = float64(snap.FailedAttempts)
	m["remote.hedges"] = float64(snap.Hedges)
	return root, nil
}
