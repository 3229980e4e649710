package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"braid/internal/isa"
	"braid/internal/remote"
	"braid/internal/service"
	"braid/internal/uarch"
)

// These tests drive braidd servers through the remote pool, which sends
// every point by its image's SHA-256 first and the image only when a
// backend answers unknown_program.

type point struct {
	prog *isa.Program
	cfg  uarch.Config
}

// sweepPoints is ten programs (three kernels and two workloads, plain and
// braided) on three machine widths each.
func sweepPoints(t *testing.T) []point {
	t.Helper()
	var pts []point
	for _, src := range []service.SimRequest{
		{Kernel: "dot"}, {Kernel: "matmul"}, {Kernel: "fig2"},
		{Workload: "gcc", Iters: 20}, {Workload: "mcf", Iters: 20},
	} {
		for _, core := range []string{"ooo", "braid"} {
			src.Core = core
			b, err := service.Build(&src, service.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			for _, width := range []int{2, 4, 8} {
				cfg := uarch.OutOfOrderConfig(width)
				if core == "braid" {
					cfg = uarch.BraidConfig(width)
				}
				pts = append(pts, point{b.Program, cfg})
			}
		}
	}
	return pts
}

// localStats is every point's Stats JSON from in-process simulation.
func localStats(t *testing.T, pts []point) [][]byte {
	t.Helper()
	out := make([][]byte, len(pts))
	for i, pt := range pts {
		st, err := uarch.SimulateChecked(context.Background(), pt.prog, pt.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = json.Marshal(st); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sweep runs pts on pool from jobs goroutines and requires every point's
// Stats to be want's, byte for byte.
func sweep(t *testing.T, pool *remote.Pool, pts []point, want [][]byte, jobs int) {
	t.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(pts); i = int(next.Add(1)) - 1 {
				res, err := pool.SimulateFull(context.Background(), pts[i].prog, pts[i].cfg)
				if err != nil {
					t.Errorf("point %d (%s): %v", i, pts[i].prog.Name, err)
					continue
				}
				if !bytes.Equal(res.RawStats, want[i]) {
					t.Errorf("point %d (%s): remote %s != local %s", i, pts[i].prog.Name, res.RawStats, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// counters reads unknown_program_total and program_builds_total from a
// backend's /metrics.
func counters(t *testing.T, url string) (unknown, builds int64) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Unknown int64 `json:"unknown_program_total"`
		Builds  int64 `json:"program_builds_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m.Unknown, m.Builds
}

// restartable serves from a braidd that the test can replace with a fresh
// one, as a restarted backend at the same address.
type restartable struct {
	svc atomic.Pointer[service.Server]
}

func (r *restartable) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.svc.Load().Handler().ServeHTTP(w, req)
}

// TestImageResendCounters: on fresh backends a concurrent sweep resends
// exactly the images the backends answered unknown_program for, and those
// answers cover every program build. A repeated sweep resends nothing and
// builds nothing, and a restarted backend costs resends, not failures. The
// Stats stay byte-identical to local simulation throughout.
func TestImageResendCounters(t *testing.T) {
	var backends [2]restartable
	var urls []string
	for i := range backends {
		backends[i].svc.Store(service.New(service.Config{Workers: 2}))
		ts := httptest.NewServer(&backends[i])
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	pool, err := remote.NewPool(remote.Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	pts := sweepPoints(t)
	want := localStats(t, pts)
	fleet := func() (unknown, builds [2]int64) {
		for i, u := range urls {
			unknown[i], builds[i] = counters(t, u)
		}
		return unknown, builds
	}

	sweep(t, pool, pts, want, 4)
	s := pool.Snapshot()
	unknown, builds := fleet()
	if s.ImageResends != uint64(unknown[0]+unknown[1]) || unknown[0]+unknown[1] < builds[0]+builds[1] {
		t.Errorf("cold sweep: image_resends %d, unknown_program_total %v, program_builds_total %v; want resends == Σ unknown ≥ Σ builds",
			s.ImageResends, unknown, builds)
	}
	if builds[0]+builds[1] < 10 {
		t.Errorf("cold sweep built %v programs, want at least the 10 distinct ones", builds)
	}
	if s.FailedAttempts != 0 || s.Retries != 0 || s.Failovers != 0 {
		t.Errorf("cold sweep: %s; an unknown_program exchange is not a failure", pool)
	}

	sweep(t, pool, pts, want, 4)
	s2 := pool.Snapshot()
	if u2, b2 := fleet(); s2.ImageResends != s.ImageResends || u2 != unknown || b2 != builds {
		t.Errorf("repeated sweep moved image_resends %d -> %d, unknown_program_total %v -> %v, program_builds_total %v -> %v",
			s.ImageResends, s2.ImageResends, unknown, u2, builds, b2)
	}

	backends[0].svc.Store(service.New(service.Config{Workers: 2}))
	sweep(t, pool, pts, want, 4)
	s3 := pool.Snapshot()
	u3, b3 := fleet()
	if s3.ImageResends-s2.ImageResends != uint64(u3[0]) || u3[0] == 0 || u3[0] < b3[0] {
		t.Errorf("after a restart: %d image resends, restarted backend answered %d unknown_program and built %d",
			s3.ImageResends-s2.ImageResends, u3[0], b3[0])
	}
	if u3[1] != unknown[1] || b3[1] != builds[1] {
		t.Errorf("the backend that kept its programs moved: unknown %d -> %d, builds %d -> %d",
			unknown[1], u3[1], builds[1], b3[1])
	}
	if s3.FailedAttempts != 0 || s3.Retries != 0 || s3.Failovers != 0 {
		t.Errorf("after a restart: %s", pool)
	}
}

// TestEvictedImageIsResent: with room for two programs, a backend serving
// four in turn has evicted each one before its next point, so every point
// is an unknown_program answer and a resend that rebuilds the program, and
// none is a failure.
func TestEvictedImageIsResent(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	service.SetProgramCacheEntries(svc, 2)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	pool, err := remote.NewPool(remote.Options{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	var pts []point
	all := sweepPoints(t)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 4; i++ {
			pts = append(pts, all[3*i+pass]) // programs 0..3, one width per pass
		}
	}
	sweep(t, pool, pts, localStats(t, pts), 1)
	s := pool.Snapshot()
	unknown, builds := counters(t, ts.URL)
	if s.ImageResends != 8 || unknown != 8 || builds != 8 {
		t.Errorf("image_resends %d, unknown_program_total %d, program_builds_total %d; want 8 each",
			s.ImageResends, unknown, builds)
	}
	if s.FailedAttempts != 0 || s.Retries != 0 {
		t.Errorf("evictions cost failures: %s", pool)
	}
}
