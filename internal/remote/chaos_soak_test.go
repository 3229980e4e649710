package remote

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"braid/internal/chaos"
	"braid/internal/experiments"
	"braid/internal/service"
	"braid/internal/uarch"
)

// soakOutcome summarizes one chaos sweep for the breaker-on/off comparison.
type soakOutcome struct {
	stats    Stats
	injected int64
}

// soakPoints is the sweep grid: every suite benchmark on three out-of-order
// widths and the 8-wide braid machine — enough distinct points that the
// sweep outlives several flap periods when run in paced waves.
func soakPoints(w *experiments.Workloads) []experiments.Point {
	var points []experiments.Point
	for _, b := range w.Benches {
		for _, width := range []int{2, 4, 8} {
			points = append(points, experiments.Point{Bench: b, Cfg: uarch.OutOfOrderConfig(width)})
		}
		points = append(points, experiments.Point{Bench: b, Braided: true, Cfg: uarch.BraidConfig(8)})
	}
	return points
}

// runChaosSweep runs one full sweep against a two-backend fleet — one
// healthy, one flapping down 2s / up 2s (starting down) — in paced waves so
// the sweep spans multiple flap periods, and demands bit-identical
// convergence with zero failed design points. It returns the pool counters
// for the breaker-on vs breaker-off comparison.
func runChaosSweep(t *testing.T, disableBreaker bool) soakOutcome {
	t.Helper()
	healthy := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer healthy.Close()
	backend := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer backend.Close()
	flap := chaos.Flap(2*time.Second, 2*time.Second)
	cp, err := chaos.New(backend.URL, flap.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(cp)
	defer proxy.Close()

	pool, err := NewPool(Options{
		Backends:    []string{healthy.URL, proxy.URL},
		MaxAttempts: 6,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		// Trip fast and cool down for 1s: the request path short-circuits
		// the down backend almost immediately, and the prober (breaker-on
		// only) reinstates it within a probe interval of the up transition.
		DisableBreaker:   disableBreaker,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !disableBreaker {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		stop := pool.StartProber(ctx, 250*time.Millisecond)
		defer stop()
	}

	w, err := experiments.LoadSuiteCtx(context.Background(), 1500, 0)
	if err != nil {
		t.Fatal(err)
	}
	points := soakPoints(w)

	// Ground truth, in-process: the determinism reference every remote
	// result must match bit for bit (IPC is derived from exact Stats).
	want := make(map[experiments.Point]float64, len(points))
	for _, pt := range points {
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
	w.SetJobs(8)
	got := make(map[experiments.Point]float64, len(points))
	const waveSize = 8
	for start := 0; start < len(points); start += waveSize {
		end := start + waveSize
		if end > len(points) {
			end = len(points)
		}
		res, err := w.IPCAll(points[start:end])
		if err != nil {
			t.Fatalf("breaker=%v wave at %d: %v", !disableBreaker, start, err)
		}
		for pt, ipc := range res {
			got[pt] = ipc
		}
		// Pace the waves so the sweep spans several down/up transitions
		// instead of finishing inside the first phase.
		time.Sleep(400 * time.Millisecond)
	}

	for pt, wantIPC := range want {
		if got[pt] != wantIPC {
			t.Errorf("breaker=%v %s braided=%v width=%d: IPC %v != local %v",
				!disableBreaker, pt.Bench.Name, pt.Braided, pt.Cfg.IssueWidth, got[pt], wantIPC)
		}
	}
	if fails := w.Failures(); len(fails) > 0 {
		t.Errorf("breaker=%v: %d failed design points under flapping backend: %v",
			!disableBreaker, len(fails), fails)
	}
	if runs := w.SimRuns(); runs != uint64(len(points)) {
		t.Errorf("breaker=%v: sim runs = %d, want %d", !disableBreaker, runs, len(points))
	}
	out := soakOutcome{stats: pool.Snapshot(), injected: cp.Faults()}
	t.Logf("breaker=%v: pool %s; injected %s", !disableBreaker, pool, cp.Counters())
	return out
}

// TestChaosSoakBreakerHalvesWastedAttempts is the self-healing acceptance
// soak: with one backend flapping down 2s / up 2s and one healthy, a full
// sweep must converge bit-identically to local results with zero failed
// design points both with and without circuit breakers — and the breakers
// must pay for themselves by issuing at least 50% fewer failed request
// attempts under the identical fault schedule.
func TestChaosSoakBreakerHalvesWastedAttempts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos soak")
	}
	on := runChaosSweep(t, false)
	off := runChaosSweep(t, true)

	if on.injected == 0 || off.injected == 0 {
		t.Fatalf("a proxy never injected a fault (on=%d off=%d); the soak proved nothing",
			on.injected, off.injected)
	}
	if on.stats.BreakerTrips == 0 {
		t.Error("breakers never tripped under a flapping backend")
	}
	if on.stats.ShortCircuits == 0 {
		t.Error("breakers never short-circuited a request; they saved nothing")
	}
	if off.stats.FailedAttempts == 0 {
		t.Fatal("breaker-off run recorded no failed attempts; the comparison is vacuous")
	}
	if 2*on.stats.FailedAttempts > off.stats.FailedAttempts {
		t.Errorf("breakers saved too little: %d failed attempts with breakers vs %d without (need ≥50%% fewer)",
			on.stats.FailedAttempts, off.stats.FailedAttempts)
	}
	t.Logf("failed attempts: %d with breakers, %d without (%.0f%% saved); %d trips, %d short-circuits, %d probe failures",
		on.stats.FailedAttempts, off.stats.FailedAttempts,
		100*(1-float64(on.stats.FailedAttempts)/float64(off.stats.FailedAttempts)),
		on.stats.BreakerTrips, on.stats.ShortCircuits, on.stats.ProbeFailures)
}
