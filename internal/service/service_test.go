package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"braid/internal/isa"
	"braid/internal/uarch"
)

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

type rawResponse struct {
	Program string          `json:"program"`
	Core    string          `json:"core"`
	Braided bool            `json:"braided"`
	IPC     float64         `json:"ipc"`
	Source  string          `json:"source"`
	Stats   json.RawMessage `json:"stats"`
}

// TestSimulateMatchesDirectRun is the service's determinism contract: the
// Stats JSON served by POST /v1/simulate must be bit-identical to marshaling
// a direct in-process uarch run of the same built request.
func TestSimulateMatchesDirectRun(t *testing.T) {
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, tc := range []string{
		`{"workload":"gcc","iters":40,"core":"ooo","width":8}`,
		`{"workload":"mcf","iters":40,"core":"braid","width":8}`,
		`{"kernel":"dot","core":"inorder","width":4}`,
	} {
		var req SimRequest
		if err := json.Unmarshal([]byte(tc), &req); err != nil {
			t.Fatal(err)
		}
		b, err := Build(&req, Limits{})
		if err != nil {
			t.Fatalf("%s: %v", tc, err)
		}
		direct, err := uarch.Simulate(b.Program, b.Config)
		if err != nil {
			t.Fatalf("%s: direct run: %v", tc, err)
		}
		want, err := json.Marshal(direct)
		if err != nil {
			t.Fatal(err)
		}

		resp, data := postJSON(t, ts.URL+"/v1/simulate", tc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc, resp.StatusCode, data)
		}
		var rr rawResponse
		if err := json.Unmarshal(data, &rr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, rr.Stats) {
			t.Errorf("%s: served Stats differ from direct run:\n served: %s\n direct: %s", tc, rr.Stats, want)
		}
		if rr.Program != b.Program.Name {
			t.Errorf("%s: program %q, want %q", tc, rr.Program, b.Program.Name)
		}
	}
}

// TestCacheServesRepeats: the second identical request is answered from the
// LRU with the same bytes, and the hit shows up in /metrics.
func TestCacheServesRepeats(t *testing.T) {
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const body = `{"workload":"gzip","iters":30,"core":"ooo"}`
	_, first := postJSON(t, ts.URL+"/v1/simulate", body)
	_, second := postJSON(t, ts.URL+"/v1/simulate", body)

	var r1, r2 rawResponse
	if err := json.Unmarshal(first, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Source != "run" || r2.Source != "cache" {
		t.Fatalf("sources %q then %q, want run then cache", r1.Source, r2.Source)
	}
	if !bytes.Equal(r1.Stats, r2.Stats) {
		t.Error("cached Stats differ from the original run")
	}
	if got := svc.met.cacheHits.Value(); got != 1 {
		t.Errorf("cache_hits = %d, want 1", got)
	}

	resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("third request failed")
	}
	_ = data
	mresp, mdata := getURL(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	var m map[string]any
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	if hits, _ := m["cache_hits"].(float64); hits < 2 {
		t.Errorf("/metrics cache_hits = %v, want >= 2", m["cache_hits"])
	}
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestQueueFullSheds429: with one worker and no queue slack, a request
// arriving while the worker is busy is shed with 429 and a Retry-After
// hint, and the in-flight request still completes.
func TestQueueFullSheds429(t *testing.T) {
	svc := New(Config{Workers: 1, queueDepth: -1})
	started := make(chan string, 1)
	release := make(chan struct{})
	svc.testHookSimStart = func(_ context.Context, key string) {
		started <- key
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
			strings.NewReader(`{"kernel":"dot","core":"ooo"}`))
		if err != nil {
			firstDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the simulator")
	}

	resp, data := postJSON(t, ts.URL+"/v1/simulate", `{"kernel":"fig2","core":"ooo"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	var env errorEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Error.Kind != "overloaded" {
		t.Errorf("429 body %s, want kind overloaded", data)
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
	if svc.met.shed.Value() != 1 {
		t.Errorf("shed_total = %d, want 1", svc.met.shed.Value())
	}
}

// TestCoalescing: a request identical to one already in flight waits for
// the leader's run instead of simulating again, and both get the same
// Stats.
func TestCoalescing(t *testing.T) {
	svc := New(Config{Workers: 1, queueDepth: 4})
	started := make(chan string, 1)
	release := make(chan struct{})
	svc.testHookSimStart = func(_ context.Context, key string) {
		started <- key
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const body = `{"workload":"crafty","iters":25,"core":"braid"}`
	type outcome struct {
		code int
		resp rawResponse
	}
	results := make(chan outcome, 2)
	do := func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			results <- outcome{code: -1}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var rr rawResponse
		json.Unmarshal(data, &rr)
		results <- outcome{code: resp.StatusCode, resp: rr}
	}
	go do()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached the simulator")
	}
	go do()
	waitFor(t, func() bool { return svc.met.coalesced.Value() == 1 }, "follower never coalesced")
	close(release)

	a, b := <-results, <-results
	if a.code != http.StatusOK || b.code != http.StatusOK {
		t.Fatalf("statuses %d, %d; want 200, 200", a.code, b.code)
	}
	got := map[string]bool{a.resp.Source: true, b.resp.Source: true}
	if !got["run"] || !got["coalesced"] {
		t.Errorf("sources %q and %q, want one run and one coalesced", a.resp.Source, b.resp.Source)
	}
	if !bytes.Equal(a.resp.Stats, b.resp.Stats) {
		t.Error("leader and follower Stats differ")
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGracefulDrain: /healthz answers exactly {"status":"ok"} while a
// simulation runs; a shutdown initiated while it is in flight waits for it,
// and the request completes normally.
func TestGracefulDrain(t *testing.T) {
	svc := New(Config{Workers: 1})
	started := make(chan string, 1)
	release := make(chan struct{})
	svc.testHookSimStart = func(_ context.Context, key string) {
		started <- key
		<-release
	}
	ts := httptest.NewServer(svc.Handler())

	slowDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
			strings.NewReader(`{"kernel":"matmul","core":"ooo"}`))
		if err != nil {
			slowDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		slowDone <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the simulator")
	}

	if hresp, data := getURL(t, ts.URL+"/healthz"); hresp.StatusCode != http.StatusOK || string(data) != "{\"status\":\"ok\"}\n" {
		t.Errorf("/healthz while simulating: %d %q, want 200 {\"status\":\"ok\"}", hresp.StatusCode, data)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- ts.Config.Shutdown(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let Shutdown begin refusing new work
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain did not complete cleanly: %v", err)
	}
	if code := <-slowDone; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain, want 200", code)
	}
}

// TestCycleLimit422: an exhausted cycle budget is a structured 422, not a
// 500, and is never cached.
func TestCycleLimit422(t *testing.T) {
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const body = `{"workload":"gcc","iters":100,"core":"ooo","max_cycles":10}`
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d (%s), want 422", resp.StatusCode, data)
		}
		var env errorEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Kind != "cycle_limit" {
			t.Errorf("kind %q, want cycle_limit", env.Error.Kind)
		}
	}
	if svc.cache.len() != 0 {
		t.Error("a failed simulation was cached")
	}
	if svc.met.cycleLim.Value() != 2 {
		t.Errorf("cycle_limit_total = %d, want 2 (failures must not be cached)", svc.met.cycleLim.Value())
	}
}

// spinAsm never halts: two loads and a branch back, forever.
const spinAsm = `
.name spin
.data 64
	ldimm r1, #65536
loop:
	ldq   r2, 0(r1)
	ldq   r3, 8(r1)
	br    loop
	halt
`

// nestedLoopAsm halts after about 4·outer·inner dynamic instructions: a loop
// of two loads nested in another.
func nestedLoopAsm(outer, inner int) string {
	return fmt.Sprintf(`
.name nested
.data 64
	ldimm r1, #65536
	ldimm r4, #%d
outer:
	ldimm r5, #%d
inner:
	ldq   r2, 0(r1)
	ldq   r3, 8(r1)
	sub   r5, r5, #1
	bne   r5, inner
	sub   r4, r4, #1
	bne   r4, outer
	halt
`, outer, inner)
}

// TestLongProgramsStayWithinBudget: a request's cycle budget bounds the
// program pre-execution it pays for. A non-halting loop and a halting loop of
// ~60 M dynamic instructions, each under a 1000-cycle budget and a 1 s
// timeout, answer 422 cycle_limit within that second, allocating less than
// 64 MB; and 64 distinct long programs held in the program cache grow the
// heap, after GC, by less than 64 MB.
func TestLongProgramsStayWithinBudget(t *testing.T) {
	svc := New(Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(src string) {
		t.Helper()
		body, err := json.Marshal(SimRequest{Asm: src, Core: "inorder", Width: 2, MaxCycles: 1000, TimeoutMS: 1000})
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postJSON(t, ts.URL+"/v1/simulate", string(body))
		var env errorEnvelope
		if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(data, &env) != nil || env.Error.Kind != "cycle_limit" {
			t.Fatalf("status %d (%s), want 422 cycle_limit", resp.StatusCode, data)
		}
	}
	const mb = 1 << 20
	for _, src := range []string{spinAsm, nestedLoopAsm(3000, 5000)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		post(src)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if elapsed > time.Second {
			t.Errorf("answered after %v, want within 1s", elapsed)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64*mb {
			t.Errorf("request allocated %d MB, want under 64", alloc/mb)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 64; i++ {
		post(nestedLoopAsm(3000+i, 5000+i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 64*mb {
		t.Errorf("64 long programs grew the heap by %d MB, want under 64", grew/mb)
	}
}

// TestFailedRunKeepsNoTrace: a sampled request on the non-halting loop under
// the server's default cycle budget pre-executes until its 2 s deadline. The
// run fails, so the trace it grew is dropped with it: the heap after GC grows
// by less than 64 MB.
func TestFailedRunKeepsNoTrace(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer ts.Close()
	body, err := json.Marshal(SimRequest{Asm: spinAsm, Core: "inorder", TimeoutMS: 2000,
		Sampling: &uarch.Sampling{Period: 100_000, Detail: 5000, Warmup: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if resp, data := postJSON(t, ts.URL+"/v1/simulate", string(body)); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const mb = 1 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 64*mb {
		t.Errorf("the failed request grew the heap by %d MB, want under 64", grew/mb)
	}
}

// TestBadRequests: malformed input is a 400 with a structured body.
func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer ts.Close()

	for _, body := range []string{
		`{`,
		`{}`,
		`{"workload":"gcc","kernel":"dot"}`,
		`{"workload":"no-such-profile"}`,
		`{"kernel":"dot","core":"no-such-core"}`,
		`{"kernel":"dot","bogus_field":1}`,
		// A declared data size is checked before it is allocated; this one
		// was a fatal out-of-memory (found by FuzzBuild).
		`{"asm":".data 999999999999\n\thalt\n"}`,
	} {
		resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", body, resp.StatusCode, data)
		}
	}
}

// oversizedConfigs are request bodies whose configuration asks one run to
// allocate more than a process can hold: a 64 GiB L2 (mem.NewCache sizes
// three arrays by it), 2^30 schedulers or BEUs (newOOOCore's and
// newBraidCore's arrays, and wakeMin), a 2^30-entry perceptron
// (bpred.NewPerceptron), a 2^30-entry ROB, and a 2^40-cycle memory latency
// (calSpan sizes the completion calendar past it). Without Config.Validate's
// ceilings each builds, and its run dies of a fatal out-of-memory error.
func oversizedConfigs() []string {
	var bodies []string
	for _, mut := range []func(*uarch.Config){
		func(c *uarch.Config) { c.Mem.L2.SizeKB = 1 << 26 },
		func(c *uarch.Config) { c.Schedulers = 1 << 30 },
		func(c *uarch.Config) { c.PredEntries = 1 << 30 },
		func(c *uarch.Config) { c.ROB = 1 << 30 },
		func(c *uarch.Config) { c.Mem.MemLatency = 1 << 40 },
		func(c *uarch.Config) { *c = uarch.BraidConfig(8); c.BEUs = 1 << 30 },
	} {
		cfg := uarch.OutOfOrderConfig(8)
		mut(&cfg)
		body, err := json.Marshal(SimRequest{Kernel: "dot", Config: &cfg})
		if err != nil {
			panic(err)
		}
		bodies = append(bodies, string(body))
	}
	return bodies
}

// TestOversizedConfigsRejected: a configuration past the ceilings is a 400
// that allocates next to nothing, not a simulation that exhausts memory.
func TestOversizedConfigsRejected(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer ts.Close()
	for _, body := range oversizedConfigs() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
		runtime.ReadMemStats(&after)
		var env errorEnvelope
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &env) != nil || env.Error.Kind != "bad_request" {
			t.Errorf("status %d (%s), want 400 bad_request", resp.StatusCode, data)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Errorf("the request allocated %d KB, want under 4 MB", alloc>>10)
		}
	}
}

// TestBuildKeyStability: the cache key is a pure function of program bytes
// and configuration — identical requests collide, different ones do not.
func TestBuildKeyStability(t *testing.T) {
	mk := func(body string) *Built {
		t.Helper()
		var req SimRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		b, err := Build(&req, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := mk(`{"workload":"gcc","iters":20,"core":"ooo","width":8}`)
	b := mk(`{"workload":"gcc","iters":20,"core":"ooo","width":8}`)
	if a.Key() != b.Key() {
		t.Error("identical requests produced different keys")
	}
	for i, other := range []*Built{
		mk(`{"workload":"gcc","iters":21,"core":"ooo","width":8}`),
		mk(`{"workload":"gcc","iters":20,"core":"ooo","width":4}`),
		mk(`{"workload":"gcc","iters":20,"core":"braid","width":8}`),
		mk(`{"workload":"mcf","iters":20,"core":"ooo","width":8}`),
	} {
		if other.Key() == a.Key() {
			t.Errorf("variant %d collides with the base key", i)
		}
	}
}

// TestLRUEviction pins the cache's bounded-memory contract.
func TestLRUEviction(t *testing.T) {
	c := newResultCache(2)
	s1, s2, s3 := &uarch.Stats{Cycles: 1}, &uarch.Stats{Cycles: 2}, &uarch.Stats{Cycles: 3}
	c.put("a", s1, nil)
	c.put("b", s2, nil)
	c.get("a") // a is now most recent
	c.put("c", s3, nil)
	if _, _, ok := c.get("b"); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if st, _, ok := c.get("a"); !ok || st.Cycles != 1 {
		t.Error("recently-used entry evicted")
	}
	if _, _, ok := c.get("c"); !ok {
		t.Error("new entry missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestSimFaultMapsTo422 pins the error mapping for contained simulator
// faults (reachable in production via the paranoid checker; constructed
// directly here since the injection API is deliberately not exposed over
// HTTP).
func TestSimFaultMapsTo422(t *testing.T) {
	fault := &uarch.SimFault{Core: uarch.CoreOutOfOrder, Program: "p", Cycle: 42, Panic: "boom"}
	status, body := simErrorBody(fmt.Errorf("wrapped: %w", fault))
	if status != http.StatusUnprocessableEntity || body.Kind != "sim_fault" || body.Cycle != 42 {
		t.Errorf("got %d %+v, want 422 sim_fault at cycle 42", status, body)
	}
	status, body = simErrorBody(fmt.Errorf("x: %w", uarch.ErrTimeout))
	if status != http.StatusGatewayTimeout || body.Kind != "deadline" {
		t.Errorf("timeout mapped to %d %q", status, body.Kind)
	}
	status, _ = simErrorBody(errOverloaded)
	if status != http.StatusTooManyRequests {
		t.Errorf("overload mapped to %d", status)
	}
}

// TestLeaderAbortReelection: a follower coalesced onto a leader whose client
// hangs up mid-run must not inherit the leader's cancellation — its own
// caller is still waiting. The follower re-elects itself, runs the
// simulation, and gets a 200.
func TestLeaderAbortReelection(t *testing.T) {
	svc := New(Config{Workers: 1, queueDepth: 4})
	var calls atomic.Int32
	started := make(chan string, 2)
	svc.testHookSimStart = func(ctx context.Context, key string) {
		if calls.Add(1) == 1 {
			started <- key
			<-ctx.Done() // hold the leader until its client has hung up
		}
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const body = `{"workload":"art","iters":25,"core":"ooo"}`
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(leaderCtx, http.MethodPost,
			ts.URL+"/v1/simulate", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached the simulator")
	}

	followerDone := make(chan rawResponse, 1)
	go func() {
		resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
		var rr rawResponse
		json.Unmarshal(data, &rr)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("follower status %d: %s", resp.StatusCode, data)
		}
		followerDone <- rr
	}()
	waitFor(t, func() bool { return svc.met.coalesced.Value() == 1 }, "follower never coalesced")

	cancelLeader() // the leader now simulates under a canceled context and fails
	if err := <-leaderDone; err == nil {
		t.Fatal("leader request was not aborted")
	}

	rr := <-followerDone
	if rr.Source != "run" {
		t.Errorf("follower source %q, want run (a fresh election)", rr.Source)
	}
	if got := svc.met.reelected.Value(); got != 1 {
		t.Errorf("coalesce_reelected_total = %d, want 1", got)
	}
	if got := svc.met.canceled.Value(); got != 1 {
		t.Errorf("canceled_total = %d, want 1 (the aborted leader)", got)
	}
}

// TestCacheReturnsCopies: the result cache must hand out private copies —
// a caller mutating a Stats it was served (or the one it put in) must not
// corrupt what later hits observe.
func TestCacheReturnsCopies(t *testing.T) {
	c := newResultCache(4)
	orig := &uarch.Stats{Cycles: 10, Retired: 5}
	c.put("k", orig, nil)
	orig.Cycles = 999 // the producer reuses its struct after the put

	st1, _, ok := c.get("k")
	if !ok || st1.Cycles != 10 {
		t.Fatalf("first hit: %+v, want Cycles=10 (insulated from producer)", st1)
	}
	st1.Retired = 12345 // a consumer scribbles on its copy

	st2, _, ok := c.get("k")
	if !ok || st2.Retired != 5 || st2.Cycles != 10 {
		t.Fatalf("second hit: %+v, want the original Cycles=10 Retired=5", st2)
	}
}

// TestMissAccountingLeaderOnly: cache_misses counts simulator demand —
// flight leaders only. Followers are coalesced, repeats are hits, and the
// three counters add up to the requests served.
func TestMissAccountingLeaderOnly(t *testing.T) {
	svc := New(Config{Workers: 1, queueDepth: 4})
	started := make(chan string, 1)
	release := make(chan struct{})
	svc.testHookSimStart = func(_ context.Context, key string) {
		started <- key
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const body = `{"workload":"equake","iters":25,"core":"ooo"}`
	results := make(chan int, 3)
	do := func() {
		resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
		_ = data
		results <- resp.StatusCode
	}
	go do()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached the simulator")
	}
	go do()
	go do()
	waitFor(t, func() bool { return svc.met.coalesced.Value() == 2 }, "followers never coalesced")
	close(release)
	for i := 0; i < 3; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/simulate", body) // repeat: a pure cache hit
	if resp.StatusCode != http.StatusOK {
		t.Fatal("repeat request failed")
	}

	miss, hits, coal := svc.met.cacheMiss.Value(), svc.met.cacheHits.Value(), svc.met.coalesced.Value()
	if miss != 1 {
		t.Errorf("cache_misses = %d, want 1 (the lone flight leader)", miss)
	}
	if coal != 2 {
		t.Errorf("coalesced_total = %d, want 2", coal)
	}
	if hits != 1 {
		t.Errorf("cache_hits = %d, want 1", hits)
	}
	if miss != svc.met.simRuns.Value() {
		t.Errorf("cache_misses = %d but sim_runs_total = %d; with no failures they must agree", miss, svc.met.simRuns.Value())
	}
	if got := hits + miss + coal; got != 4 {
		t.Errorf("hits+misses+coalesced = %d, want 4 (one per simulate request)", got)
	}
}

// TestIdenticalRequestsSimulateOnce: identical requests racing on a fresh
// server simulate their key once. A leader stores its result before its
// flight ends, and a request that wins a flight looks in the cache again
// before it simulates. Without the first, a follower's next request can
// arrive between the two and simulate the key again; without the second, so
// can a request that missed the cache just before the store and joined just
// after the flight ended.
func TestIdenticalRequestsSimulateOnce(t *testing.T) {
	const rounds, clients, requests = 500, 32, 10
	for round := 0; round < rounds; round++ {
		svc := New(Config{Workers: 2})
		b, err := svc.build(&SimRequest{Kernel: "dot", Core: "inorder", Width: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < requests; i++ {
					if _, err := svc.runSim(context.Background(), b); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		runs, miss := svc.met.simRuns.Value(), svc.met.cacheMiss.Value()
		if runs != 1 || miss != runs {
			t.Fatalf("round %d: sim_runs_total = %d and cache_misses = %d, want 1 and 1", round, runs, miss)
		}
		if got := svc.met.cacheHits.Value() + miss + svc.met.coalesced.Value(); got != clients*requests {
			t.Fatalf("round %d: hits+misses+coalesced = %d, want %d", round, got, clients*requests)
		}
	}
}

// TestImageRequestBitIdentical: a request carrying the exact program image
// (the distributed-execution transport) produces the same Stats bytes and
// the same cache key as the equivalent name-based request.
func TestImageRequestBitIdentical(t *testing.T) {
	named := SimRequest{Workload: "gcc", Iters: 30, Core: "braid", Width: 8}
	nb, err := Build(&named, Limits{})
	if err != nil {
		t.Fatal(err)
	}

	var img bytes.Buffer
	if err := isa.WriteImage(&img, nb.Program); err != nil {
		t.Fatal(err)
	}
	noBraid := false // the image is already braided; it must not recompile
	cfg := nb.Config
	imageReq := SimRequest{
		Image:  base64.StdEncoding.EncodeToString(img.Bytes()),
		Config: &cfg,
		Braid:  &noBraid,
	}
	ib, err := Build(&imageReq, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if ib.Key() != nb.Key() {
		t.Errorf("image-built key %s differs from name-built key %s", ib.Key(), nb.Key())
	}

	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	body, err := json.Marshal(&imageReq)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/simulate", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var rr rawResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	direct, err := uarch.Simulate(nb.Program, nb.Config)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	if !bytes.Equal(want, rr.Stats) {
		t.Errorf("image-request Stats differ from direct run:\n served: %s\n direct: %s", rr.Stats, want)
	}
}

// TestWaitingNeverNegative pins the /metrics queue-depth clamp: the two
// channel reads race, so the raw difference can go negative mid-request;
// the reported value must not.
func TestWaitingNeverNegative(t *testing.T) {
	a := newAdmission(2, 4)
	// A request can release its queue position between the two length
	// reads; model the worst case directly.
	a.slots <- struct{}{}
	if got := a.waiting(); got != 0 {
		t.Errorf("waiting() = %d with slots ahead of queue, want 0", got)
	}
	a.queue <- struct{}{}
	a.queue <- struct{}{}
	if got := a.waiting(); got != 1 {
		t.Errorf("waiting() = %d, want 1", got)
	}
}

// TestLatencyHistQuantiles sanity-checks the log-bucket estimator: the
// quantile is an upper bound within one power of two of the true value.
func TestLatencyHistQuantiles(t *testing.T) {
	h := &latencyHist{}
	for i := 0; i < 99; i++ {
		h.observe(1 * time.Millisecond)
	}
	h.observe(500 * time.Millisecond)
	snap := h.snapshot()
	p50 := snap["p50_ms"].(float64)
	p99 := snap["p99_ms"].(float64)
	if p50 < 1 || p50 > 2.1 {
		t.Errorf("p50 = %v ms, want ~1-2", p50)
	}
	if p99 < 1 || p99 > 2.1 {
		t.Errorf("p99 = %v ms, want ~1-2 (99 of 100 samples are 1ms)", p99)
	}
	if max := snap["max_ms"].(float64); max < 499 {
		t.Errorf("max = %v ms, want ~500", max)
	}
	if ov := snap["overflow"].(uint64); ov != 0 {
		t.Errorf("overflow = %d, want 0 for sub-bucket-range samples", ov)
	}
}

// TestLatencyHistOverflowHonest: observations beyond the histogram's ~67s
// bucket range must not be clamped into the top bucket — that silently caps
// every quantile at 67s precisely when the service is at its slowest.
// Quantiles landing in the overflow region report the observed maximum, and
// the overflow count is exported.
func TestLatencyHistOverflowHonest(t *testing.T) {
	h := &latencyHist{}
	for i := 0; i < 10; i++ {
		h.observe(1 * time.Millisecond)
	}
	for i := 0; i < 90; i++ {
		h.observe(120 * time.Second) // far past the 2^26µs ≈ 67s bucket ceiling
	}
	snap := h.snapshot()
	if ov := snap["overflow"].(uint64); ov != 90 {
		t.Errorf("overflow = %d, want 90", ov)
	}
	const wantMS = 120 * 1000
	for _, q := range []string{"p50_ms", "p99_ms"} {
		if got := snap[q].(float64); got < wantMS {
			t.Errorf("%s = %v ms, want %v (quantile is among the 120s observations; 67s would be a silent under-report)",
				q, got, wantMS)
		}
	}
	if p50 := h.quantileLocked(0.10); p50 > 2.1 {
		t.Errorf("p10 = %v ms, want ~1-2 (the fast samples still resolve normally)", p50)
	}
	if cnt := snap["count"].(uint64); cnt != 100 {
		t.Errorf("count = %d, want 100", cnt)
	}
}

// TestSampledRequest: a sampled request returns a sampling block whose
// estimate reflects real fast-forwarding, lives in a cache keyspace disjoint
// from the exact result for the same point, and splits the service's
// simulated-instruction metrics into detailed vs fast-forwarded work.
func TestSampledRequest(t *testing.T) {
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	type sampledResponse struct {
		rawResponse
		Sampling *struct {
			Geometry uarch.Sampling        `json:"geometry"`
			Estimate *uarch.SampleEstimate `json:"estimate"`
		} `json:"sampling"`
	}
	post := func(body string) sampledResponse {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var r sampledResponse
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	const exact = `{"workload":"gcc","iters":2000,"core":"ooo","width":8}`
	const sampled = `{"workload":"gcc","iters":2000,"core":"ooo","width":8,"sampling":{"period":12000,"detail":4000,"warmup":4000}}`

	ex := post(exact)
	if ex.Sampling != nil {
		t.Fatal("exact response carries a sampling block")
	}

	// Same program+config, sampled: must be a fresh run, not the exact
	// cache entry — the keyspaces are disjoint.
	sp := post(sampled)
	if sp.Source != "run" {
		t.Fatalf("sampled request source %q, want run (exact cache must not alias)", sp.Source)
	}
	if sp.Sampling == nil || sp.Sampling.Estimate == nil {
		t.Fatal("sampled response missing sampling block or estimate")
	}
	est := sp.Sampling.Estimate
	if est.Exact {
		t.Fatal("sampled run fell back to exact for a multi-interval program")
	}
	if est.FFwdInstrs == 0 || est.Intervals < 2 {
		t.Fatalf("estimate shows no sampling: %+v", est)
	}
	if relErr := (sp.IPC - ex.IPC) / ex.IPC; relErr < -0.25 || relErr > 0.25 {
		t.Errorf("sampled IPC %.4f vs exact %.4f: error beyond any plausible bound", sp.IPC, ex.IPC)
	}

	// Repeats hit the sampled cache entry and round-trip the estimate.
	sp2 := post(sampled)
	if sp2.Source != "cache" {
		t.Errorf("repeat sampled request source %q, want cache", sp2.Source)
	}
	if sp2.Sampling == nil || sp2.Sampling.Estimate == nil || *sp2.Sampling.Estimate != *est {
		t.Error("cached sampled response lost or changed the estimate")
	}

	// /metrics splits engine work: the fast-forwarded leap is visible, and
	// detailed + fast-forwarded accounts for every retired instruction.
	_, mdata := getURL(t, ts.URL+"/metrics")
	var m map[string]any
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	detailed, _ := m["sim_detailed_instructions_total"].(float64)
	ffwd, _ := m["sim_fastforward_instructions_total"].(float64)
	instrs, _ := m["sim_instructions_total"].(float64)
	if ffwd != float64(est.FFwdInstrs) {
		t.Errorf("sim_fastforward_instructions_total = %v, want %d", ffwd, est.FFwdInstrs)
	}
	if detailed+ffwd != instrs {
		t.Errorf("detailed %v + fastforward %v != sim_instructions_total %v", detailed, ffwd, instrs)
	}
	if mips, _ := m["simulated_mips"].(float64); mips <= 0 {
		t.Errorf("simulated_mips = %v, want > 0", m["simulated_mips"])
	}
}

// TestSampledSingleIntervalFiniteCI: a geometry that yields exactly one
// measured interval must still produce a well-formed response with a finite
// ipc_rel_ci95. The CI estimator divides by len(intervals)-1; without the
// n<2 guard the NaN would reach json.Marshal, which rejects NaN outright —
// turning a legal request into a 500 with an empty body.
func TestSampledSingleIntervalFiniteCI(t *testing.T) {
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Learn the point's dynamic length from an exact run, then pick
	// Period = n-1: the program is one instruction longer than a period
	// (so it does not fall back to exact mode), the first interval is the
	// only measured one, and the second starts with a single instruction
	// left — inside its warm-up, so it never contributes a CPI sample.
	exact := `{"workload":"gcc","iters":500,"core":"ooo","width":8}`
	resp, data := postJSON(t, ts.URL+"/v1/simulate", exact)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact run status %d: %s", resp.StatusCode, data)
	}
	var ex struct {
		Stats struct {
			Retired uint64 `json:"Retired"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(data, &ex); err != nil {
		t.Fatal(err)
	}
	n := ex.Stats.Retired
	if n < 1000 {
		t.Fatalf("gcc/500 retired only %d instructions; test geometry needs more", n)
	}

	body := fmt.Sprintf(
		`{"workload":"gcc","iters":500,"core":"ooo","width":8,"sampling":{"period":%d,"detail":%d,"warmup":16}}`,
		n-1, n/4)
	resp, data = postJSON(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-interval sampled run status %d: %s", resp.StatusCode, data)
	}
	var sp struct {
		IPC      float64 `json:"ipc"`
		Sampling *struct {
			Estimate *uarch.SampleEstimate `json:"estimate"`
		} `json:"sampling"`
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatalf("response is not valid JSON: %v\n%s", err, data)
	}
	if sp.Sampling == nil || sp.Sampling.Estimate == nil {
		t.Fatalf("missing sampling estimate: %s", data)
	}
	est := sp.Sampling.Estimate
	if est.Exact {
		t.Fatalf("fell back to exact mode: %+v", est)
	}
	if est.Intervals != 1 {
		t.Fatalf("got %d measured intervals, want exactly 1 (geometry drifted): %+v", est.Intervals, est)
	}
	if math.IsNaN(est.IPCRelCI) || math.IsInf(est.IPCRelCI, 0) {
		t.Errorf("ipc_rel_ci95 = %v, want finite", est.IPCRelCI)
	}
	if math.IsNaN(est.CPI) || est.CPI <= 0 {
		t.Errorf("cpi = %v, want positive and finite", est.CPI)
	}
	if sp.IPC <= 0 {
		t.Errorf("ipc = %v, want > 0", sp.IPC)
	}
}
