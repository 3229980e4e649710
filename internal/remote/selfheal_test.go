package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"braid/internal/chaos"
	"braid/internal/experiments"
	"braid/internal/isa"
	"braid/internal/service"
	"braid/internal/uarch"
)

func TestRetryAfterDuration(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{" 120 ", 120 * time.Second},
		{"0", 0},
		{"-5", 0},
		{now.Add(10 * time.Second).Format(http.TimeFormat), 10 * time.Second},
		{now.Add(90 * time.Minute).Format(http.TimeFormat), 90 * time.Minute},
		{now.Add(-time.Hour).Format(http.TimeFormat), 0}, // a date in the past is no hint
		{now.Format(http.TimeFormat), 0},
		{"Mon, 07 Aug 2026 12:00:10 UTC", 0}, // not an RFC 9110 HTTP-date
		{"soon", 0},
		// Too many seconds for a Duration: clamped, not wrapped negative
		// (which sleepBackoff would drop instead of capping at maxBackoff).
		{"10000000000", math.MaxInt64},
		{"9223372036854775807", math.MaxInt64},
		{"9223372036", 9223372036 * time.Second},
	}
	for _, c := range cases {
		if got := retryAfterDuration(c.in, now); got != c.want {
			t.Errorf("retryAfterDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// FuzzRetryAfter: no Retry-After header parses to a negative delay, and a
// positive number of seconds is never dropped.
func FuzzRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for _, seed := range []string{"", "3", " 120 ", "0", "-5", "soon",
		now.Add(10 * time.Second).Format(http.TimeFormat), now.Add(-time.Hour).Format(http.TimeFormat),
		"Mon, 07 Aug 2026 12:00:10 UTC"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d := retryAfterDuration(s, now)
		if d < 0 {
			t.Fatalf("retryAfterDuration(%q) = %v", s, d)
		}
		if secs, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64); err == nil && secs > 0 && d == 0 {
			t.Fatalf("retryAfterDuration(%q) dropped a %d-second hint", s, secs)
		}
	})
}

// TestRetryHonorsHTTPDateRetryAfter is the end-to-end shape of the new
// Retry-After form: a backend shedding with an HTTP-date far in the future
// must still be retried promptly, because the backoff ceiling caps the hint.
func TestRetryHonorsHTTPDateRetryAfter(t *testing.T) {
	n := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		if n <= 2 {
			w.Header().Set("Retry-After", time.Now().Add(time.Hour).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fakeSimHandler(t, w)
	}))
	defer ts.Close()
	pool := testPool(t, Options{Backends: []string{ts.URL}}, 4, 20*time.Millisecond)
	t0 := time.Now()
	res, err := pool.SimulateFull(context.Background(), mustKernel(t, "dot"), uarch.OutOfOrderConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (two dated 429s then success)", res.Attempts)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Errorf("an hour-long HTTP-date hint stalled retries for %v; the backoff ceiling must cap it", d)
	}
}

// fakeSimHandler answers a simulate with locally computed, correctly
// hashed stats for the dot kernel on the 8-wide out-of-order core.
func fakeSimHandler(t *testing.T, w http.ResponseWriter) {
	t.Helper()
	st, err := uarch.SimulateChecked(context.Background(), mustKernel(t, "dot"), uarch.OutOfOrderConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(st)
	serveStats(w, raw)
}

// TestIntegrityCheckCatchesCorruptedBody drives the pool through a chaos
// proxy that corrupts every second response body — one digit flipped inside
// the stats object, body length and JSON validity preserved, integrity
// header relayed verbatim. Without the SHA-256 check the pool would accept
// silently wrong Stats; with it, corruption classifies as a retryable
// transport error and every point converges to bit-identical results.
func TestIntegrityCheckCatchesCorruptedBody(t *testing.T) {
	backend := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer backend.Close()
	cp, err := chaos.New(backend.URL, chaos.EveryN(2, chaos.Fault{Kind: chaos.Corrupt}))
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(cp)
	defer proxy.Close()

	pool := testPool(t, Options{Backends: []string{proxy.URL}}, 6, 5*time.Millisecond)
	prog := mustKernel(t, "dot")
	for i, width := range []int{2, 4, 8, 2, 4, 8} {
		cfg := uarch.OutOfOrderConfig(width)
		want, err := uarch.SimulateChecked(context.Background(), prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantRaw, _ := json.Marshal(want)
		res, err := pool.SimulateFull(context.Background(), prog, cfg)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !bytes.Equal(res.RawStats, wantRaw) {
			t.Fatalf("request %d: corrupted stats slipped through: %s != %s", i, res.RawStats, wantRaw)
		}
	}
	s := pool.Snapshot()
	if cp.Injected(chaos.Corrupt) == 0 {
		t.Fatal("the proxy never corrupted a body; the test proved nothing")
	}
	if s.IntegrityFailures == 0 {
		t.Error("corrupted bodies were never caught by the integrity check")
	}
	if s.IntegrityFailures != s.FailedAttempts {
		t.Errorf("integrity failures %d != failed attempts %d; corruption should be the only failure mode here",
			s.IntegrityFailures, s.FailedAttempts)
	}
}

// TestIntegrityCheckCoversEstimate: the digest covers the whole body, not
// only the Stats. A relay that flips one digit of the sampled estimate's
// ipc_rel_ci95 in the first answer, keeping the header, must be caught and
// retried, so the pool returns the estimate local simulation gives.
func TestIntegrityCheckCoversEstimate(t *testing.T) {
	svc := service.New(service.Config{Workers: 2}).Handler()
	var answered atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && answered.Add(1) == 1 {
			key := []byte(`"ipc_rel_ci95":`)
			at := bytes.Index(body, key) + len(key)
			for body[at] < '1' || body[at] > '8' {
				at++
			}
			body[at]++ // 0.2177… becomes 0.3177…
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer ts.Close()

	pool := testPool(t, Options{Backends: []string{ts.URL}}, 0, 5*time.Millisecond)
	prog, cfg := mustKernel(t, "matmul"), uarch.OutOfOrderConfig(8)
	sp := uarch.Sampling{Period: 2000, Detail: 500, Warmup: 500}
	_, want, err := uarch.SimulateSampled(context.Background(), prog, cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	if want.Exact || want.IPCRelCI == 0 {
		t.Fatalf("local estimate %+v carries no confidence interval to corrupt", want)
	}
	_, got, err := pool.SimulateSampled(context.Background(), prog, cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	if got.IPCRelCI != want.IPCRelCI {
		t.Errorf("pool returned ipc_rel_ci95 %v, local simulation %v", got.IPCRelCI, want.IPCRelCI)
	}
	if s := pool.Snapshot(); s.IntegrityFailures != 1 {
		t.Errorf("integrity failures = %d, want the 1 corrupted answer", s.IntegrityFailures)
	}
}

// TestMissingIntegrityHeaderRetried: a 200 without a digest is not accepted
// unchecked; it is an integrity failure, retried like a wrong digest.
func TestMissingIntegrityHeaderRetried(t *testing.T) {
	st, _ := json.Marshal(&uarch.Stats{Cycles: 3, Retired: 3})
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Write([]byte(`{"stats":{"Cycles":1,"Retired":1},"source":"run"}`))
			return
		}
		serveStats(w, st)
	}))
	defer ts.Close()
	pool := testPool(t, Options{Backends: []string{ts.URL}}, 0, 5*time.Millisecond)
	res, err := pool.SimulateFull(context.Background(), mustKernel(t, "dot"), uarch.OutOfOrderConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 || res.Stats.Cycles != 3 {
		t.Errorf("attempts %d, cycles %d; want the unsigned answer retried: 2 attempts, 3 cycles", res.Attempts, res.Stats.Cycles)
	}
	if s := pool.Snapshot(); s.IntegrityFailures != 1 {
		t.Errorf("integrity failures = %d, want 1", s.IntegrityFailures)
	}
}

// TestFallbackLocalBitIdentical points a pool at a dead fleet with
// -fallback=local semantics: every point must degrade to in-process
// simulation with bit-identical Stats, clean Failures() accounting, intact
// memoization, and checkpoint entries indistinguishable from a healthy
// fleet's.
func TestFallbackLocalBitIdentical(t *testing.T) {
	pool := testPool(t, Options{
		Backends: []string{"127.0.0.1:1"}, // nothing listens here
		Fallback: FallbackLocal,
	}, 2, 2*time.Millisecond)
	pool.ejectAfter, pool.cooldown = 2, time.Hour // once ejected, skipped for the whole test

	// Direct runner check: provenance and exact bytes.
	prog, cfg := mustKernel(t, "dot"), uarch.OutOfOrderConfig(8)
	want, err := uarch.SimulateChecked(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, _ := json.Marshal(want)
	res, err := pool.SimulateFull(context.Background(), prog, cfg)
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	if res.Source != "local" || res.Backend != "" {
		t.Errorf("fallback provenance = %q/%q, want local/\"\"", res.Source, res.Backend)
	}
	if !bytes.Equal(res.RawStats, wantRaw) {
		t.Errorf("fallback stats not bit-identical: %s != %s", res.RawStats, wantRaw)
	}

	// Sweep check: memoization and checkpoints stay clean.
	w, err := experiments.LoadSuiteCtx(context.Background(), 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	var points []experiments.Point
	for _, b := range w.Benches[:3] {
		points = append(points, experiments.Point{Bench: b, Cfg: uarch.OutOfOrderConfig(8)})
	}
	points = append(points, points...) // duplicates exercise the memo cache
	unique := len(points) / 2

	want2 := make(map[experiments.Point]float64, unique)
	for _, pt := range points[:unique] {
		st, err := uarch.SimulateChecked(context.Background(), pt.Bench.Orig, pt.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		want2[pt] = st.IPC()
	}

	ckpt := filepath.Join(t.TempDir(), "fallback.jsonl")
	w.SetRunner(pool)
	w.SetJobs(4)
	if _, err := w.OpenCheckpoint(ckpt, false); err != nil {
		t.Fatal(err)
	}
	got, err := w.IPCAll(points)
	if err != nil {
		t.Fatalf("fallback sweep: %v", err)
	}
	if err := w.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}
	for pt, wantIPC := range want2 {
		if got[pt] != wantIPC {
			t.Errorf("%s: fallback IPC %v != local %v", pt.Bench.Name, got[pt], wantIPC)
		}
	}
	if fails := w.Failures(); len(fails) > 0 {
		t.Errorf("failures under local fallback: %v", fails)
	}
	if runs := w.SimRuns(); runs != uint64(unique) {
		t.Errorf("sim runs = %d, want %d (memoization must absorb duplicates)", runs, unique)
	}
	if s := pool.Snapshot(); s.LocalFallbacks == 0 {
		t.Error("no local fallbacks recorded against a dead fleet")
	} else if s.ShortCircuits == 0 {
		t.Error("the dead backend was never ejected and skipped")
	}

	// The checkpoint written under fallback replays like any other: a fresh
	// suite resumes every point from the file without touching a runner.
	w2, err := experiments.LoadSuiteCtx(context.Background(), 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := w2.OpenCheckpoint(ckpt, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.CloseCheckpoint()
	if restored != unique {
		t.Fatalf("restored %d checkpoint entries, want %d", restored, unique)
	}
	var points2 []experiments.Point
	for _, b := range w2.Benches[:3] {
		points2 = append(points2, experiments.Point{Bench: b, Cfg: uarch.OutOfOrderConfig(8)})
	}
	got2, err := w2.IPCAll(points2)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points2 {
		if got2[pt] != want2[points[i]] {
			t.Errorf("%s: resumed IPC %v != local %v", pt.Bench.Name, got2[pt], want2[points[i]])
		}
	}
	if runs := w2.SimRuns(); runs != 0 {
		t.Errorf("resume re-simulated %d points; the checkpoint should cover all of them", runs)
	}
}

// TestFallbackFailStaysTransient: the default policy surfaces Unavailable
// (transient, not memoized) exactly as before the fallback existed.
func TestFallbackFailStaysTransient(t *testing.T) {
	pool := testPool(t, Options{Backends: []string{"127.0.0.1:1"}}, 2, 2*time.Millisecond)
	_, err := pool.Simulate(context.Background(), mustKernel(t, "dot"), uarch.OutOfOrderConfig(8))
	if err == nil {
		t.Fatal("a dead fleet with fallback=fail must error")
	}
	if !experiments.Transient(err) {
		t.Errorf("unavailable fleet error must stay transient, got %v", err)
	}
}

// TestHealthEjectsAfterConsecutiveFailures walks one backend's health record
// on a synthetic clock: three failed attempts in a row eject it, it is
// skipped for a cooldown and then granted one trial at a time, and the
// answer to that trial puts it back in rotation with a fresh failure run.
func TestHealthEjectsAfterConsecutiveFailures(t *testing.T) {
	const cooldown = time.Second
	t0 := time.Unix(0, 0)
	var h health
	h.failed(t0, 3)
	h.failed(t0, 3)
	h.answered(t0) // any answer, a 429 included, ends the run
	h.failed(t0, 3)
	h.failed(t0, 3)
	if !h.allow(t0, cooldown) {
		t.Fatal("two failed attempts in a row ejected the backend")
	}
	h.failed(t0, 3)
	if h.allow(t0.Add(cooldown-1), cooldown) {
		t.Fatal("three failed attempts in a row did not eject the backend for a cooldown")
	}
	h.answered(t0.Add(-time.Millisecond)) // an attempt from before the ejection
	if ejected, n := h.snapshot(); !ejected || n != 1 {
		t.Fatalf("ejected %v after %d ejections, want still ejected after 1", ejected, n)
	}

	trial := t0.Add(cooldown)
	if !h.allow(trial, cooldown) {
		t.Fatal("no trial after the cooldown")
	}
	if h.allow(trial.Add(cooldown-1), cooldown) {
		t.Fatal("a second trial while the first is in flight")
	}
	h.answered(trial)
	if ejected, n := h.snapshot(); ejected || n != 1 {
		t.Fatalf("ejected %v after %d ejections, want back in rotation after 1", ejected, n)
	}
	if !h.allow(trial, cooldown) {
		t.Fatal("a backend back in rotation refused an attempt")
	}

	// The failure run restarted: it takes three fresh failures to eject again.
	h.failed(trial, 3)
	h.failed(trial, 3)
	if !h.allow(trial, cooldown) {
		t.Fatal("the failure run did not restart on the trial's answer")
	}

	var never health // ejectAfter 0: the request path never ejects
	for i := 0; i < 10; i++ {
		never.failed(t0, 0)
	}
	if !never.allow(t0, cooldown) {
		t.Error("ejectAfter 0 ejected the backend")
	}
}

// TestHealthFailedTrialStaysEjected: a failed trial leaves the backend
// ejected until a cooldown after that trial started, and a late answer to
// it overrules nothing once a newer trial is out; the newer trial's answer
// puts the backend back.
func TestHealthFailedTrialStaysEjected(t *testing.T) {
	const cooldown = time.Second
	t0 := time.Unix(0, 0)
	var h health
	h.failed(t0, 2)
	h.failed(t0, 2) // ejects
	trial := t0.Add(2 * cooldown)
	if !h.allow(trial, cooldown) {
		t.Fatal("no trial after the cooldown")
	}
	h.failed(trial.Add(time.Millisecond), 2) // the trial fails
	if ejected, n := h.snapshot(); !ejected || n != 1 {
		t.Fatalf("ejected %v after %d ejections, want still ejected after 1", ejected, n)
	}
	if h.allow(trial.Add(cooldown-1), cooldown) {
		t.Fatal("a failed trial did not hold the backend out for a cooldown")
	}
	retrial := trial.Add(cooldown)
	if !h.allow(retrial, cooldown) {
		t.Fatal("no second trial after another cooldown")
	}
	h.answered(trial) // the first trial's late answer predates the retrial
	if ejected, n := h.snapshot(); !ejected || n != 1 {
		t.Fatalf("ejected %v after %d ejections, want still ejected after 1", ejected, n)
	}
	h.answered(retrial)
	if ejected, n := h.snapshot(); ejected || n != 1 {
		t.Fatalf("ejected %v after %d ejections, want back in rotation after 1", ejected, n)
	}
}

// TestHealthTrialExpiryPreventsDeadlock: a trial whose caller never
// reports holds the slot for one cooldown and then expires, so a lost
// caller can never keep the backend ejected for good.
func TestHealthTrialExpiryPreventsDeadlock(t *testing.T) {
	const cooldown = time.Second
	t0 := time.Unix(0, 0)
	var h health
	h.failed(t0, 1) // ejects
	trial := t0.Add(2 * cooldown)
	if !h.allow(trial, cooldown) {
		t.Fatal("no trial after the cooldown")
	}
	if h.allow(trial.Add(cooldown/2), cooldown) {
		t.Fatal("a second trial before the unreported one expired")
	}
	if !h.allow(trial.Add(cooldown), cooldown) {
		t.Fatal("an unreported trial did not expire after another cooldown")
	}
}

// TestHealthProberEjection: the prober's ejection counts once, and each
// further failed probe restarts the cooldown, so no trial is granted while
// the prober keeps failing the backend.
func TestHealthProberEjection(t *testing.T) {
	const cooldown = time.Second
	t0 := time.Unix(0, 0)
	var h health
	h.eject(t0)
	h.eject(t0.Add(900 * time.Millisecond))
	if h.allow(t0.Add(1500*time.Millisecond), cooldown) {
		t.Error("a trial within a cooldown of the latest failed probe")
	}
	if !h.allow(t0.Add(1900*time.Millisecond), cooldown) {
		t.Error("no trial a cooldown after the latest failed probe")
	}
	if _, n := h.snapshot(); n != 1 {
		t.Errorf("%d ejections, want 1", n)
	}
}

// TestProberEjectsAndReintegrates runs the background prober against one
// healthy backend and one flapping backend: the flapper starts down (every
// connection reset), so the prober must eject it. Once the flapper heals,
// passing canaries leave it ejected; the first point it owns past the
// cooldown is its trial, and the answer puts it back in rotation.
func TestProberEjectsAndReintegrates(t *testing.T) {
	healthy := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer healthy.Close()
	var canaries atomic.Int64 // canaries that reached the flapping backend
	backend := httptest.NewServer(countCanaries(t, service.New(service.Config{Workers: 2}).Handler(), &canaries))
	defer backend.Close()
	flap := chaos.Flap(time.Hour, time.Hour) // phases pinned by Force below
	flap.Force(false)
	cp, err := chaos.New(backend.URL, flap.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(cp)
	defer proxy.Close()

	pool, err := NewPool(Options{Backends: []string{healthy.URL, proxy.URL}})
	if err != nil {
		t.Fatal(err)
	}
	pool.cooldown = 200 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := pool.StartProber(ctx, 25*time.Millisecond)
	defer stop()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; snapshot: %+v", desc, pool.Snapshot())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("the down backend to be ejected", func() bool {
		s := pool.Snapshot()
		return !s.Healthy[proxy.URL] && s.Ejections == 1 && s.Healthy[healthy.URL]
	})
	if s := pool.Snapshot(); s.ProbeFailures == 0 {
		t.Error("ejection without any recorded probe failures")
	}

	flap.Force(true)
	waitFor("three passing canaries", func() bool { return canaries.Load() >= 3 })
	if s := pool.Snapshot(); s.Healthy[proxy.URL] {
		t.Fatal("passing canaries put the healed backend back in rotation")
	}

	// The last failed probe ended before the first passing canary, so one
	// cooldown from now the healed backend is due its trial.
	time.Sleep(pool.cooldown)
	var prog *isa.Program
	for i := 0; prog == nil; i++ {
		if p := renamed(t, "dot", i); owner(t, pool, p) == 1 {
			prog = p
		}
	}
	res, err := pool.SimulateFull(context.Background(), prog, uarch.OutOfOrderConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != proxy.URL || res.Attempts != 1 {
		t.Errorf("the healed backend's point was answered by %s in %d attempts, want %s in 1", res.Backend, res.Attempts, proxy.URL)
	}
	if s := pool.Snapshot(); !s.Healthy[proxy.URL] || s.Ejections != 1 {
		t.Errorf("after an answered trial: healthy %v, %d ejections; want back in rotation after 1", s.Healthy[proxy.URL], s.Ejections)
	}
}

// TestCanaryMismatchEjects fronts a backend with a relay that alters one
// Stats digit in every answer and signs the altered body: the digest
// passes, so only the canary's known-answer check can notice the backend is
// serving wrong results — and must eject it.
func TestCanaryMismatchEjects(t *testing.T) {
	proxy := httptest.NewServer(&resignRelay{
		next:  service.New(service.Config{Workers: 2}).Handler(),
		wrong: func(int64) bool { return true },
	})
	defer proxy.Close()

	pool, err := NewPool(Options{Backends: []string{proxy.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := pool.StartProber(ctx, 25*time.Millisecond)
	defer stop()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := pool.Snapshot()
		if s.CanaryMismatches > 0 && !s.Healthy[proxy.URL] && s.Ejections == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("wrong-answering backend never ejected; snapshot: %+v", pool.Snapshot())
}

// countCanaries wraps next, counting the prober's canaries among the
// requests it serves.
func countCanaries(t *testing.T, next http.Handler, n *atomic.Int64) http.Handler {
	canary, _, err := canaryRequest()
	if err != nil {
		t.Fatal(err)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if bytes.Equal(body, canary) {
			n.Add(1)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, r)
	})
}

// TestCanary429KeepsBackendInRotation: a canary answered 429 is no verdict,
// the rule the request path applies to a shedding backend, so a backend
// busy shedding stays in rotation.
func TestCanary429KeepsBackendInRotation(t *testing.T) {
	var canaries atomic.Int64
	shedding := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	ts := httptest.NewServer(countCanaries(t, shedding, &canaries))
	defer ts.Close()
	pool, err := NewPool(Options{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pool.probeAll(context.Background(), 25*time.Millisecond)
	}
	if canaries.Load() != 3 {
		t.Fatalf("%d canaries reached the backend in 3 ticks, want 3", canaries.Load())
	}
	if s := pool.Snapshot(); !s.Healthy[ts.URL] || s.Ejections != 0 || s.ProbeFailures != 0 {
		t.Errorf("after three 429 canaries: healthy %v, %d ejections, %d probe failures; want in rotation, 0, 0",
			s.Healthy[ts.URL], s.Ejections, s.ProbeFailures)
	}
}

// TestProberSendsOneRequestPerBackend: each tick costs every backend one
// request, the canary, and no answer to it is a hedge-latency sample.
func TestProberSendsOneRequestPerBackend(t *testing.T) {
	var urls []string
	var requests, canaries [2]atomic.Int64
	for i := range requests {
		svc := countCanaries(t, service.New(service.Config{Workers: 2}).Handler(), &canaries[i])
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests[i].Add(1)
			svc.ServeHTTP(w, r)
		}))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	pool, err := NewPool(Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 3
	for i := 0; i < ticks; i++ {
		pool.probeAll(context.Background(), 25*time.Millisecond)
	}
	for i := range requests {
		if r, c := requests[i].Load(), canaries[i].Load(); r != ticks || c != ticks {
			t.Errorf("backend %d got %d requests, %d of them canaries, in %d ticks; want %d canaries only", i, r, c, ticks, ticks)
		}
	}
	if s := pool.Snapshot(); s.Ejections != 0 || s.ProbeFailures != 0 {
		t.Errorf("healthy backends: %d ejections, %d probe failures", s.Ejections, s.ProbeFailures)
	}
	if pool.latN != 0 {
		t.Errorf("the prober added %d hedge-latency samples, want 0", pool.latN)
	}
	if _, err := pool.SimulateFull(context.Background(), mustKernel(t, "dot"), uarch.OutOfOrderConfig(8)); err != nil {
		t.Fatal(err)
	}
	if pool.latN != 1 {
		t.Errorf("one point added %d hedge-latency samples, want 1", pool.latN)
	}
}
