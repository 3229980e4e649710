package remote

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"braid/internal/experiments"
	"braid/internal/isa"
	"braid/internal/service"
	"braid/internal/uarch"
	"braid/internal/workload"
)

func mustKernel(t *testing.T, name string) *isa.Program {
	t.Helper()
	p, ok := workload.KernelByName(name)
	if !ok {
		t.Fatalf("kernel %q missing", name)
	}
	return p
}

// renamed returns the kernel under a new name. The image carries the name, so
// each i gives a distinct program with its own routing key.
func renamed(t *testing.T, kernel string, i int) *isa.Program {
	t.Helper()
	p := mustKernel(t, kernel)
	p.Name = fmt.Sprintf("%s-%d", kernel, i)
	return p
}

// testPool builds a pool over o that retries fast: it backs off from 1 ms
// up to maxBackoff and makes attempts tries per point (0: the default).
func testPool(t *testing.T, o Options, attempts int, maxBackoff time.Duration) *Pool {
	t.Helper()
	p, err := NewPool(o)
	if err != nil {
		t.Fatal(err)
	}
	p.baseBackoff, p.maxBackoff = time.Millisecond, maxBackoff
	if attempts > 0 {
		p.maxAttempts = attempts
	}
	return p
}

// owner returns the index of the backend that owns prog's points in pool.
func owner(t *testing.T, pool *Pool, prog *isa.Program) int {
	t.Helper()
	w, err := encodeRequest(prog, uarch.OutOfOrderConfig(8), pool.opt.TimeoutMS, uarch.Sampling{})
	if err != nil {
		t.Fatal(err)
	}
	return rank(pool.backends, w.req.ImageSHA256)[0]
}

// testDigest is the hex SHA-256 of i, standing in for a program image digest.
func testDigest(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(i)))
	return hex.EncodeToString(sum[:])
}

func TestRingDeterministicAndComplete(t *testing.T) {
	backends := []string{"http://a:1", "http://b:1", "http://c:1"}
	hits := make([]int, len(backends))
	for i := 0; i < 1000; i++ {
		key := testDigest(i)
		c1 := rank(backends, key)
		c2 := rank(backends, key)
		if len(c1) != len(backends) {
			t.Fatalf("rank(%q) = %v, want all %d backends", key, c1, len(backends))
		}
		seen := map[int]bool{}
		for j, b := range c1 {
			if b != c2[j] {
				t.Fatalf("rank(%q) not deterministic: %v vs %v", key, c1, c2)
			}
			if seen[b] {
				t.Fatalf("rank(%q) repeats backend %d: %v", key, b, c1)
			}
			seen[b] = true
		}
		hits[c1[0]]++
	}
	for i, n := range hits {
		if n == 0 {
			t.Errorf("backend %d owns no keys out of 1000: distribution %v", i, hits)
		}
	}
}

// TestRingOwnerStableAcrossFleetGrowth: a backend that joins takes keys only
// for itself, and one that leaves moves only its own keys, wherever it sits
// in the list.
func TestRingOwnerStableAcrossFleetGrowth(t *testing.T) {
	full := []string{"http://a:1", "http://b:1", "http://c:1"}
	for drop := range full {
		part := slices.Delete(slices.Clone(full), drop, drop+1)
		moved := 0
		for i := 0; i < 1000; i++ {
			key := testDigest(i)
			before, after := part[rank(part, key)[0]], full[rank(full, key)[0]]
			if before != after && after != full[drop] {
				moved++
			}
		}
		if moved != 0 {
			t.Errorf("%d/1000 keys moved between the other backends when %s joined or left", moved, full[drop])
		}
	}
}

// TestRankBalancesLoopbackFleets: over 300 fleets of consecutive loopback
// ports and 1,000 program digests, the busiest backend owns at most 1.1× its
// fair share at the median fleet and 1.2× at the 90th percentile, for 2, 3
// and 4 backends. An FNV-64a ring with 64 virtual nodes per backend measures
// 1.37× and 1.78× here on two backends, 2.40× at p90 on four: its virtual
// nodes for near-identical URLs cluster.
func TestRankBalancesLoopbackFleets(t *testing.T) {
	digests := make([]string, 1000)
	for i := range digests {
		digests[i] = testDigest(i)
	}
	for n := 2; n <= 4; n++ {
		ratios := make([]float64, 300)
		for set := range ratios {
			backends := make([]string, n)
			for i := range backends {
				backends[i] = fmt.Sprintf("http://127.0.0.1:%d", 32768+91*set+i)
			}
			owned := make([]int, n)
			for _, d := range digests {
				owned[rank(backends, d)[0]]++
			}
			ratios[set] = float64(slices.Max(owned)*n) / float64(len(digests))
		}
		sort.Float64s(ratios)
		median, p90 := ratios[len(ratios)/2], ratios[len(ratios)*9/10]
		t.Logf("%d backends: busiest share %.3f× fair at the median, %.3f× at p90", n, median, p90)
		if median > 1.1 || p90 > 1.2 {
			t.Errorf("%d backends: busiest share exceeds 1.1× fair at the median or 1.2× at p90", n)
		}
	}
}

func TestNewPoolNormalizesBackends(t *testing.T) {
	p, err := NewPool(Options{Backends: []string{" 127.0.0.1:9 ", "http://x/", ""}})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Backends()
	want := []string{"http://127.0.0.1:9", "http://x"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Backends() = %v, want %v", got, want)
	}
	if _, err := NewPool(Options{}); err == nil {
		t.Error("NewPool with no backends did not fail")
	}
	if _, err := NewPool(Options{Backends: []string{"  ", ""}}); err == nil {
		t.Error("NewPool with blank backends did not fail")
	}
	// Two spellings of one server would share its counters but not a health record.
	_, err = NewPool(Options{Backends: []string{"127.0.0.1:8091", "http://127.0.0.1:8091/"}})
	if err == nil || !strings.Contains(err.Error(), "http://127.0.0.1:8091") {
		t.Errorf("NewPool with a duplicate backend: err = %v, want an error naming http://127.0.0.1:8091", err)
	}
}

// serveStats answers a simulate as braidd does: a body carrying st, with the
// body's SHA-256 in the integrity header.
func serveStats(w http.ResponseWriter, st []byte) {
	body := fmt.Sprintf(`{"stats":%s,"source":"run"}`, st)
	sum := sha256.Sum256([]byte(body))
	w.Header().Set(bodySHAHeader, hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, body)
}

// fakeBackend returns canned Stats for every simulate call and counts hits.
func fakeBackend(t *testing.T, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	st, _ := json.Marshal(&uarch.Stats{Cycles: 100, Retired: 200})
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		hits.Add(1)
		serveStats(w, st)
	}))
}

// TestRoutingStickiness: the same point always lands on the same backend, so
// repeats hit that backend's result cache rather than fanning out.
func TestRoutingStickiness(t *testing.T) {
	var hits [3]atomic.Int64
	var urls []string
	for i := range hits {
		ts := fakeBackend(t, &hits[i])
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	pool, err := NewPool(Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	p, cfg := mustKernel(t, "dot"), uarch.OutOfOrderConfig(8)
	for i := 0; i < 10; i++ {
		if _, err := pool.Simulate(context.Background(), p, cfg); err != nil {
			t.Fatal(err)
		}
	}
	owners := 0
	for i := range hits {
		if n := hits[i].Load(); n > 0 {
			owners++
			if n != 10 {
				t.Errorf("owning backend %d served %d of 10 requests", i, n)
			}
		}
	}
	if owners != 1 {
		t.Errorf("%d backends served one repeated point, want exactly 1", owners)
	}
	if got := pool.Snapshot().Requests; got != 10 {
		t.Errorf("requests = %d, want 10", got)
	}
}

// TestProgramBuiltOnOneBackend: every point of a program, exact or sampled,
// routes to the backend that owns the program, so over two real servers the
// program is built once, on one of them. Repeating the points moves neither
// builds, image resends nor simulations: each repeat reaches the result cache
// that holds it.
func TestProgramBuiltOnOneBackend(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	pool, err := NewPool(Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	prog := mustKernel(t, "matmul")
	type point struct {
		cfg uarch.Config
		sp  uarch.Sampling
	}
	var points []point
	for _, cfg := range []uarch.Config{uarch.OutOfOrderConfig(2), uarch.OutOfOrderConfig(4),
		uarch.OutOfOrderConfig(8), uarch.InOrderConfig(4), uarch.DepSteerConfig(8)} {
		points = append(points, point{cfg, uarch.Sampling{}},
			point{cfg, uarch.Sampling{Period: 2000, Detail: 500, Warmup: 500}})
	}
	sweep := func() {
		for _, pt := range points {
			if _, _, err := pool.SimulateSampled(context.Background(), prog, pt.cfg, pt.sp); err != nil {
				t.Fatalf("%s sampled=%v: %v", pt.cfg.Core, pt.sp.Enabled(), err)
			}
		}
	}
	// counters reads one /metrics counter from each backend.
	counters := func(name string) (per [2]float64) {
		for i, u := range urls {
			resp, err := http.Get(u + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			var m map[string]any
			err = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			per[i], _ = m[name].(float64)
		}
		return per
	}

	sweep()
	builds, sims, resends := counters("program_builds_total"), counters("sim_runs_total"), pool.Snapshot().ImageResends
	if builds[0]+builds[1] != 1 {
		t.Errorf("program_builds_total per backend = %v, want one build on one backend", builds)
	}
	if sims[0]+sims[1] != float64(len(points)) {
		t.Errorf("sim_runs_total per backend = %v, want %d in all", sims, len(points))
	}
	if resends != 1 {
		t.Errorf("image resends = %d, want 1", resends)
	}

	sweep()
	if got := counters("program_builds_total"); got != builds {
		t.Errorf("repeated points built the program again: program_builds_total %v -> %v", builds, got)
	}
	if got := counters("sim_runs_total"); got != sims {
		t.Errorf("repeated points simulated again: sim_runs_total %v -> %v", sims, got)
	}
	if got := pool.Snapshot().ImageResends; got != resends {
		t.Errorf("repeated points resent the image: %d -> %d", resends, got)
	}
	if n := pool.images.encodes.Load(); n != 1 {
		t.Errorf("two sweeps of %d points of one program wrote its image %d times, want once", len(points), n)
	}
}

// TestImageMemoBounded: the memo writes each program's image once while it
// holds the program, and holds at most maxMemoImages programs, oldest
// dropped first.
func TestImageMemoBounded(t *testing.T) {
	var m imageMemo
	progs := make([]*isa.Program, maxMemoImages+10)
	for i := range progs {
		progs[i] = renamed(t, "dot", i)
		want, err := newProgramImage(progs[i])
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			img, err := m.get(progs[i])
			if err != nil || img.digest != want.digest || !bytes.Equal(img.bytes, want.bytes) {
				t.Fatalf("program %d: memo image differs from a fresh encoding (%v)", i, err)
			}
		}
	}
	if n := m.encodes.Load(); n != uint64(len(progs)) {
		t.Errorf("%d programs, 3 gets each: %d encodes, want one per program", len(progs), n)
	}
	if len(m.entries) != maxMemoImages || len(m.order) != maxMemoImages {
		t.Errorf("memo holds %d entries (%d in order), want %d", len(m.entries), len(m.order), maxMemoImages)
	}
	if _, ok := m.entries[progs[0]]; ok {
		t.Error("the oldest program is still held")
	}
	m.get(progs[0])
	if n := m.encodes.Load(); n != uint64(len(progs))+1 {
		t.Errorf("a dropped program came back with %d encodes, want it written again", n)
	}
}

// TestRetryHonors429: a shed backend with a Retry-After hint is retried (with
// the hint capped by the backoff ceiling, so a long hint cannot stall
// failover) until it recovers.
func TestRetryHonors429(t *testing.T) {
	var calls atomic.Int64
	st, _ := json.Marshal(&uarch.Stats{Cycles: 1, Retired: 1})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "30") // way beyond the backoff ceiling
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		serveStats(w, st)
	}))
	defer ts.Close()

	pool := testPool(t, Options{Backends: []string{ts.URL}}, 0, 20*time.Millisecond)
	t0 := time.Now()
	res, err := pool.SimulateFull(context.Background(), mustKernel(t, "dot"), uarch.OutOfOrderConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (two 429s then success)", res.Attempts)
	}
	if got := pool.Snapshot().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Errorf("retry loop took %v; the 30s Retry-After hint was not capped", elapsed)
	}
}

// TestFailoverAroundDeadBackend: a point owned by an unreachable backend
// fails over in rank order and still succeeds.
func TestFailoverAroundDeadBackend(t *testing.T) {
	var hits atomic.Int64
	live := fakeBackend(t, &hits)
	defer live.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from now on

	pool := testPool(t, Options{Backends: []string{dead.URL, live.URL}}, 0, 5*time.Millisecond)
	// Choose the programs by their owner, through the pool's own ranking and
	// request key, so three belong to the dead backend whatever ports the
	// test servers got. Those run first, while it is still in rotation.
	var onDead, onLive []*isa.Program
	kernels := []string{"dot", "matmul", "fig2"}
	for i := 0; len(onDead) < 3 || len(onLive) < 6; i++ {
		if i == 1000 {
			t.Fatalf("1000 programs give the dead backend %d and the live one %d", len(onDead), len(onLive))
		}
		p := renamed(t, kernels[i%len(kernels)], i)
		if owner(t, pool, p) == 0 {
			onDead = append(onDead, p)
		} else {
			onLive = append(onLive, p)
		}
	}
	for _, p := range append(onDead[:3], onLive[:6]...) {
		if _, err := pool.Simulate(context.Background(), p, uarch.OutOfOrderConfig(8)); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	s := pool.Snapshot()
	if s.Failovers == 0 {
		t.Error("no failovers recorded for three points the dead backend owns")
	}
	if s.PerBackend[pool.Backends()[0]] != 0 {
		t.Error("dead backend recorded successful responses")
	}
	if s.PerBackend[pool.Backends()[1]] != 9 {
		t.Errorf("live backend served %d of 9 points", s.PerBackend[pool.Backends()[1]])
	}
}

// TestTerminalErrorsTranslate: structured backend failures come back in the
// local error taxonomy with no retries burned.
func TestTerminalErrorsTranslate(t *testing.T) {
	for _, tc := range []struct {
		kind   string
		status int
		check  func(error) bool
		want   string
	}{
		{"sim_fault", 422, func(err error) bool {
			var sf *uarch.SimFault
			return errors.As(err, &sf) && sf.Cycle == 42 && experiments.Contained(err)
		}, "a contained *uarch.SimFault at cycle 42"},
		{"cycle_limit", 422, func(err error) bool {
			return errors.Is(err, uarch.ErrCycleLimit) && experiments.Contained(err)
		}, "ErrCycleLimit"},
		{"deadline", 504, func(err error) bool {
			return errors.Is(err, uarch.ErrTimeout) && experiments.Transient(err)
		}, "a transient ErrTimeout"},
		{"bad_request", 400, func(err error) bool {
			return !experiments.Contained(err) && !experiments.Transient(err)
		}, "a terminal error"},
	} {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(tc.status)
			fmt.Fprintf(w, `{"error":{"kind":%q,"message":"boom","cycle":42}}`, tc.kind)
		}))
		pool := testPool(t, Options{Backends: []string{ts.URL}}, 0, 2*time.Second)
		_, err := pool.Simulate(context.Background(), mustKernel(t, "dot"), uarch.OutOfOrderConfig(8))
		if err == nil || !tc.check(err) {
			t.Errorf("%s: got %v, want %s", tc.kind, err, tc.want)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("%s: %d attempts, want 1 (terminal errors must not retry)", tc.kind, n)
		}
		ts.Close()
	}
}

// TestAllBackendsDownIsTransient: exhausting every attempt yields Unavailable,
// which the experiment layer treats as transient — the memo key is not
// poisoned and a recovered fleet can rerun the point.
func TestAllBackendsDownIsTransient(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	pool := testPool(t, Options{Backends: []string{dead.URL}}, 3, 2*time.Millisecond)
	_, err := pool.Simulate(context.Background(), mustKernel(t, "dot"), uarch.OutOfOrderConfig(8))
	var u *Unavailable
	if !errors.As(err, &u) {
		t.Fatalf("got %v, want *Unavailable", err)
	}
	if u.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", u.Attempts)
	}
	if !experiments.Transient(err) {
		t.Error("Unavailable not classified transient")
	}
	if _, err := pool.Ping(context.Background()); err == nil {
		t.Error("Ping succeeded against a dead fleet")
	}
	// An interrupt is not a dead fleet: the CLIs exit 130 on ErrCanceled.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.Ping(canceled); !errors.Is(err, uarch.ErrCanceled) {
		t.Errorf("Ping under a canceled context: %v, want ErrCanceled", err)
	}
}

// TestHedgeWinsOnStraggler: a point owned by a stalled backend is answered by
// the hedge on the next backend instead of waiting out the straggler.
func TestHedgeWinsOnStraggler(t *testing.T) {
	stall := make(chan struct{})
	st, _ := json.Marshal(&uarch.Stats{Cycles: 7, Retired: 7})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		select {
		case <-stall:
		case <-r.Context().Done():
			return
		}
		serveStats(w, st)
	}))
	defer slow.Close()
	defer close(stall) // LIFO: unblock the handler before Close waits on it
	var fastHits atomic.Int64
	fast := fakeBackend(t, &fastHits)
	defer fast.Close()

	pool, err := NewPool(Options{Backends: []string{slow.URL, fast.URL}, Hedge: true})
	if err != nil {
		t.Fatal(err)
	}
	pool.hedgeFloor = time.Millisecond
	// Search for a program the slow backend owns, so the hedge
	// deterministically goes to the fast one.
	var prog *isa.Program
	for i := 0; i < 64 && prog == nil; i++ {
		if p := renamed(t, "dot", i); owner(t, pool, p) == 0 {
			prog = p
		}
	}
	if prog == nil {
		t.Fatal("no renamed kernel routed to the slow backend")
	}
	cfg := uarch.OutOfOrderConfig(8)
	done := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = pool.SimulateFull(context.Background(), prog, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hedge never rescued the stalled request")
	}
	if !res.Hedged {
		t.Error("winning response not marked hedged")
	}
	s := pool.Snapshot()
	if s.Hedges != 1 || s.HedgeWins != 1 {
		t.Errorf("hedges=%d wins=%d, want 1 and 1", s.Hedges, s.HedgeWins)
	}
	if fastHits.Load() == 0 {
		t.Error("fast backend never saw the hedge")
	}
}

// TestVerifyAgainstRealService: with VerifyEvery=1 every point is locally
// re-simulated and must match a real braidd bit for bit.
func TestVerifyAgainstRealService(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer ts.Close()
	pool, err := NewPool(Options{Backends: []string{ts.URL}, VerifyEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.SimulateFull(context.Background(), mustKernel(t, "dot"), uarch.OutOfOrderConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("result not verified with VerifyEvery=1")
	}
	if got := pool.Snapshot().Verified; got != 1 {
		t.Errorf("verified = %d, want 1", got)
	}
}

// TestVerifyDetectsDivergence: a backend serving wrong Stats is caught, not
// silently folded into the sweep. The body carries a valid digest, as a
// miscomputing backend's would, so only -remote-verify can catch it.
func TestVerifyDetectsDivergence(t *testing.T) {
	st, _ := json.Marshal(&uarch.Stats{Cycles: 1, Retired: 1}) // a lie
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveStats(w, st)
	}))
	defer ts.Close()
	pool, err := NewPool(Options{Backends: []string{ts.URL}, VerifyEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pool.Simulate(context.Background(), mustKernel(t, "dot"), uarch.OutOfOrderConfig(8))
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want *VerifyError", err)
	}
}

// TestRemoteMatchesLocalBitForBit: against a real service, the pool's Stats
// are byte-identical to in-process simulation for every core kind.
func TestRemoteMatchesLocalBitForBit(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer ts.Close()
	pool, err := NewPool(Options{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	prog := mustKernel(t, "matmul")
	for _, cfg := range []uarch.Config{
		uarch.OutOfOrderConfig(8),
		uarch.InOrderConfig(4),
		uarch.DepSteerConfig(8),
	} {
		local, err := uarch.SimulateChecked(context.Background(), prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pool.SimulateFull(context.Background(), prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(local)
		if string(want) != string(res.RawStats) {
			t.Errorf("%s: remote stats differ:\n remote: %s\n  local: %s", cfg.Core, res.RawStats, want)
		}
	}
}

// TestHedgeCancelsLoser: when the hedge wins, the primary's in-flight HTTP
// request must be torn down immediately — its per-attempt context is
// canceled the moment the winner returns, not whenever the pool next feels
// like it. The slow backend blocks until its request context dies and
// reports how long that took.
func TestHedgeCancelsLoser(t *testing.T) {
	cancelled := make(chan struct{}, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		// Drain the body: the server only watches for client disconnect
		// (which is what cancels r.Context) once the handler has consumed
		// the request. The real braidd handler decodes the body up front.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
		select {
		case cancelled <- struct{}{}:
		default:
		}
	}))
	defer slow.Close()
	st, _ := json.Marshal(&uarch.Stats{Cycles: 100, Retired: 200})
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		serveStats(w, st)
	}))
	defer fast.Close()

	pool, err := NewPool(Options{Backends: []string{slow.URL, fast.URL}, Hedge: true})
	if err != nil {
		t.Fatal(err)
	}
	pool.maxAttempts, pool.hedgeFloor = 2, 10*time.Millisecond
	// Pre-fill the latency window so hedgeDelay is the floor, not the
	// conservative 250ms cold-start delay.
	pool.latMu.Lock()
	for i := range pool.latMS[:32] {
		pool.latMS[i] = 1
	}
	pool.latN = 32
	pool.latMu.Unlock()

	w, err := encodeRequest(mustKernel(t, "dot"), uarch.OutOfOrderConfig(8), 0, uarch.Sampling{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.runHedged(context.Background(), w, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hedged {
		t.Error("fast hedge should have won against a wedged primary")
	}
	select {
	case <-cancelled:
	case <-time.After(3 * time.Second):
		t.Fatal("losing primary request was not canceled after the hedge won")
	}
	if s := pool.Snapshot(); s.Hedges < 1 || s.HedgeWins < 1 {
		t.Errorf("hedge counters: %d hedges, %d wins; want >= 1 each", s.Hedges, s.HedgeWins)
	}
}

// TestHedgedLoserFreesWorker: a hedged burst must not inflate workers_busy
// on the losing backend. The cold backend starts a multi-second simulation;
// the hedge lands on a backend whose cache already holds the point and wins
// in microseconds. Without loser cancellation the cold backend's worker
// stays busy for the entire simulation; with it, workers_busy and
// queue_depth drain to zero almost immediately.
func TestHedgedLoserFreesWorker(t *testing.T) {
	prof, ok := workload.ProfileByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	// Calibrate the program so one exact simulation takes ~2.5s: long
	// enough that a leaked worker is unambiguous against the 1.2s drain
	// deadline below, short enough to keep the test quick.
	const calIters = 2000
	p, err := workload.Generate(prof, calIters)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.OutOfOrderConfig(8)
	t0 := time.Now()
	if _, err := uarch.SimulateChecked(context.Background(), p, cfg); err != nil {
		t.Fatal(err)
	}
	per := time.Since(t0)
	iters := int(float64(calIters) * float64(2500*time.Millisecond) / float64(per))
	if iters < calIters {
		iters = calIters
	}
	if iters > isa.ImmMax {
		iters = isa.ImmMax
	}
	p, err = workload.Generate(prof, iters)
	if err != nil {
		t.Fatal(err)
	}

	backends := [2]*httptest.Server{
		httptest.NewServer(service.New(service.Config{Workers: 2}).Handler()),
		httptest.NewServer(service.New(service.Config{Workers: 2}).Handler()),
	}
	defer backends[0].Close()
	defer backends[1].Close()

	pool, err := NewPool(Options{Backends: []string{backends[0].URL, backends[1].URL}, Hedge: true})
	if err != nil {
		t.Fatal(err)
	}
	pool.maxAttempts, pool.hedgeFloor = 2, 10*time.Millisecond
	pool.latMu.Lock()
	for i := range pool.latMS[:32] {
		pool.latMS[i] = 1
	}
	pool.latN = 32
	pool.latMu.Unlock()

	// The ranking decides which backend is primary for this point; pre-warm
	// the OTHER backend's cache so the hedge wins instantly while the
	// primary is still deep inside the long simulation.
	w, err := encodeRequest(p, cfg, 0, uarch.Sampling{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := w.imageBody()
	if err != nil {
		t.Fatal(err)
	}
	cands := rank(pool.backends, w.req.ImageSHA256)
	cold, warm := backends[cands[0]], backends[cands[1]]
	resp, err := http.Post(warm.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-warm status %d", resp.StatusCode)
	}

	start := time.Now()
	res, err := pool.SimulateFull(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hedged {
		t.Fatalf("expected the warm-cache hedge to win (took %s)", time.Since(start))
	}

	// The losing simulation still has seconds of work left; its worker
	// must be released well before that.
	deadline := time.Now().Add(1200 * time.Millisecond)
	for {
		resp, err := http.Get(cold.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		derr := json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if derr != nil {
			t.Fatal(derr)
		}
		busy, _ := m["workers_busy"].(float64)
		depth, _ := m["queue_depth"].(float64)
		if busy == 0 && depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("losing backend still has workers_busy=%v queue_depth=%v after the hedge won — hedged loser was not canceled", busy, depth)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
