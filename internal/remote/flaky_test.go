package remote

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"braid/internal/chaos"
	"braid/internal/experiments"
	"braid/internal/service"
	"braid/internal/uarch"
)

// newFlakyProxy fronts a healthy braidd with injected failures via the
// shared chaos proxy: every third simulate request is refused, alternating
// between a raw connection reset and a 429 with a Retry-After hint. Health
// checks pass through untouched so Ping sees a live fleet.
func newFlakyProxy(t *testing.T, backendURL string) (*httptest.Server, *chaos.Proxy) {
	t.Helper()
	p, err := chaos.New(backendURL, chaos.EveryN(3,
		chaos.Fault{Kind: chaos.Reset},
		chaos.Fault{Kind: chaos.Status, Status: http.StatusTooManyRequests, RetryAfter: "1"},
	))
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(p), p
}

// TestFlakyBackendsConvergeBitIdentical is the distributed-execution
// soak: a parallel experiment sweep over two braidd backends that shed and
// reset connections on a third of their requests must converge — through
// retries, failover, and hedging — to exactly the IPC values in-process
// simulation produces, with zero contained failures and untouched
// memoization accounting.
func TestFlakyBackendsConvergeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed soak test")
	}

	var proxies []*chaos.Proxy
	var urls []string
	for i := 0; i < 2; i++ {
		backend := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
		defer backend.Close()
		proxy, fp := newFlakyProxy(t, backend.URL)
		defer proxy.Close()
		proxies = append(proxies, fp)
		urls = append(urls, proxy.URL)
	}

	// A third of requests fault: 16 attempts leave headroom to converge.
	pool := testPool(t, Options{Backends: urls, Hedge: true, VerifyEvery: 4}, 16, 10*time.Millisecond)
	pool.hedgeFloor = time.Millisecond
	if _, err := pool.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}

	w, err := experiments.LoadSuiteCtx(context.Background(), 1500, 8)
	if err != nil {
		t.Fatal(err)
	}

	// The points: a slice of the suite across both binaries, with duplicates
	// so memoization is exercised under the remote runner too.
	var points []experiments.Point
	for _, b := range w.Benches[:6] {
		for _, braided := range []bool{false, true} {
			cfg := uarch.OutOfOrderConfig(8)
			if braided {
				cfg = uarch.BraidConfig(8)
			}
			points = append(points, experiments.Point{Bench: b, Braided: braided, Cfg: cfg})
		}
	}
	points = append(points, points...) // duplicates: one simulation each, total
	unique := len(points) / 2

	// Ground truth, in-process.
	want := make(map[experiments.Point]float64, unique)
	for _, pt := range points[:unique] {
		p := pt.Bench.Orig
		if pt.Braided {
			p = pt.Bench.Braided
		}
		st, err := uarch.SimulateChecked(context.Background(), p, pt.Cfg)
		if err != nil {
			t.Fatalf("local %s: %v", pt.Bench.Name, err)
		}
		want[pt] = st.IPC()
	}

	w.SetRunner(pool)
	got, err := w.IPCAll(points)
	if err != nil {
		t.Fatalf("remote sweep: %v", err)
	}
	for pt, wantIPC := range want {
		gotIPC, ok := got[pt]
		if !ok {
			t.Errorf("%s braided=%v: missing from remote sweep", pt.Bench.Name, pt.Braided)
			continue
		}
		if gotIPC != wantIPC || math.IsNaN(gotIPC) {
			t.Errorf("%s braided=%v: remote IPC %v != local %v", pt.Bench.Name, pt.Braided, gotIPC, wantIPC)
		}
	}
	if fails := w.Failures(); len(fails) > 0 {
		t.Errorf("contained failures under flaky backends: %v", fails)
	}
	if runs := w.SimRuns(); runs != uint64(unique) {
		t.Errorf("sim runs = %d, want %d (memoization must absorb duplicates)", runs, unique)
	}

	s := pool.Snapshot()
	injected := proxies[0].Faults() + proxies[1].Faults()
	if injected == 0 {
		t.Fatal("the proxies never injected a fault; the soak proved nothing")
	}
	if s.Retries == 0 {
		t.Error("no retries despite injected faults")
	}
	t.Logf("pool: %s; injected faults: %d (%s | %s)",
		pool, injected, proxies[0].Counters(), proxies[1].Counters())
}
