package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"braid/internal/isa"
	"braid/internal/uarch"
)

// countdownAsm is a small halting program; distinct n give distinct sources.
func countdownAsm(n int) string {
	return fmt.Sprintf(".name count%d\n\tldimm r6, #%d\nloop:\n\tsub r6, r6, #1\n\tbgt r6, loop\n\thalt\n", n, n)
}

func asmBody(t *testing.T, n int) string {
	t.Helper()
	data, err := json.Marshal(SimRequest{Asm: countdownAsm(n), Core: "inorder", Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// releaseCounter replaces a server's releaseProgram with one that counts the
// calls per program before releasing.
type releaseCounter struct {
	mu sync.Mutex
	n  map[*isa.Program]int
}

func countReleases(svc *Server) *releaseCounter {
	rc := &releaseCounter{n: make(map[*isa.Program]int)}
	svc.releaseProgram = func(p *isa.Program) {
		rc.mu.Lock()
		rc.n[p]++
		rc.mu.Unlock()
		uarch.ReleaseProgram(p)
	}
	return rc
}

func (rc *releaseCounter) total() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	n := 0
	for _, c := range rc.n {
		n += c
	}
	return n
}

func (rc *releaseCounter) of(p *isa.Program) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.n[p]
}

// TestProgramCacheReleasesOnEviction: with room for two programs, six
// distinct programs served one after another evict the first four, and each
// eviction releases its program's replay state exactly once.
func TestProgramCacheReleasesOnEviction(t *testing.T) {
	svc := New(Config{Workers: 1})
	svc.programs = newLRU[progKey, *programHalf](2, svc.evictProgram)
	rc := countReleases(svc)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for n := 1; n <= 6; n++ {
		if resp, data := postJSON(t, ts.URL+"/v1/simulate", asmBody(t, n)); resp.StatusCode != http.StatusOK {
			t.Fatalf("program %d: status %d: %s", n, resp.StatusCode, data)
		}
	}
	if got := rc.total(); got != 4 {
		t.Errorf("%d releases, want 4", got)
	}
	if got := svc.programs.len(); got != 2 {
		t.Errorf("program_cache_entries = %d, want 2", got)
	}
	if got := svc.met.programBuilds.Value(); got != 6 {
		t.Errorf("program_builds_total = %d, want 6", got)
	}
}

// TestProgramReleasedAfterLateRun: a program evicted while its request waits
// to simulate is released again when that simulation ends, because the run
// rebuilt the replay state the eviction released.
func TestProgramReleasedAfterLateRun(t *testing.T) {
	svc := New(Config{Workers: 2})
	svc.programs = newLRU[progKey, *programHalf](2, svc.evictProgram)
	rc := countReleases(svc)
	held, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	svc.testHookSimStart = func(context.Context, string) {
		if calls.Add(1) == 1 { // hold only the first request, before it simulates
			close(held)
			<-release
		}
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	first, err := svc.build(&SimRequest{Asm: countdownAsm(1), Core: "inorder", Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	body := asmBody(t, 1)
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the simulator")
	}
	for n := 2; n <= 3; n++ { // the second worker serves these; 3 evicts 1
		if resp, data := postJSON(t, ts.URL+"/v1/simulate", asmBody(t, n)); resp.StatusCode != http.StatusOK {
			t.Fatalf("program %d: status %d: %s", n, resp.StatusCode, data)
		}
	}
	if got := rc.of(first.Program); got != 1 {
		t.Fatalf("evicted program released %d times before its run, want 1", got)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held request: status %d", code)
	}
	if got := rc.of(first.Program); got != 2 {
		t.Errorf("evicted program released %d times after its run, want 2", got)
	}
	if got := rc.total(); got != 2 {
		t.Errorf("%d releases in all, want 2", got)
	}
}

// TestFailedOrLongRunReleasesProgram: a run that fails, or whose program is
// longer than a kept trace, releases its program's replay state when it
// ends; a shorter successful run keeps it.
func TestFailedOrLongRunReleasesProgram(t *testing.T) {
	svc := New(Config{Workers: 1})
	svc.keptTrace = 1000
	rc := countReleases(svc)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, c := range []struct {
		req              SimRequest
		status, releases int
	}{
		{SimRequest{Asm: countdownAsm(100), Core: "inorder", Width: 4}, http.StatusOK, 0},  // ~200 instructions
		{SimRequest{Asm: countdownAsm(1000), Core: "inorder", Width: 4}, http.StatusOK, 1}, // ~2000
		{SimRequest{Asm: spinAsm, Core: "inorder", Width: 2, MaxCycles: 1000}, http.StatusUnprocessableEntity, 1},
	} {
		b, err := svc.build(&c.req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		if resp, data := postJSON(t, ts.URL+"/v1/simulate", string(body)); resp.StatusCode != c.status {
			t.Fatalf("%s: status %d (%s), want %d", b.Program.Name, resp.StatusCode, data, c.status)
		}
		if got := rc.of(b.Program); got != c.releases {
			t.Errorf("%s: released %d times, want %d", b.Program.Name, got, c.releases)
		}
	}
}

// TestProgramCacheSharesProgram: requests naming the same source share one
// program; the braided flag and the workload's resolved loop count are part
// of the source.
func TestProgramCacheSharesProgram(t *testing.T) {
	svc := New(Config{})
	mk := func(req SimRequest) *Built {
		t.Helper()
		b, err := svc.build(&req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := mk(SimRequest{Workload: "gcc", Core: "ooo", Width: 8})
	if b := mk(SimRequest{Workload: "gcc", Iters: defaultIters, Core: "ooo", Width: 4}); b.Program != a.Program {
		t.Error("same workload and resolved iters built a second program")
	}
	if b := mk(SimRequest{Workload: "gcc", Core: "braid", Width: 8}); b.Program == a.Program || !b.Braided {
		t.Error("braided request shared the plain program")
	}
	if b := mk(SimRequest{Workload: "gcc", Iters: 99, Core: "ooo"}); b.Program == a.Program {
		t.Error("other iters shared the program")
	}
	if got := svc.met.programBuilds.Value(); got != 3 {
		t.Errorf("program_builds_total = %d, want 3", got)
	}
}

// TestProgramCacheConcurrent resolves a few sources from many goroutines at
// once through a program cache too small for them, so lookups, racing cold
// builds and evictions interleave (run with -race). Every request must get
// what Build makes.
func TestProgramCacheConcurrent(t *testing.T) {
	svc := New(Config{})
	svc.programs = newLRU[progKey, *programHalf](2, svc.evictProgram)
	reqs := make([]SimRequest, 4)
	want := make([]string, len(reqs))
	for i := range reqs {
		reqs[i] = SimRequest{Asm: countdownAsm(i + 1), Core: "braid", Width: 4}
		b, err := Build(&reqs[i], Limits{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b.Key()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r := (g + i) % len(reqs)
				b, err := svc.build(&reqs[r])
				if err != nil {
					t.Error(err)
					return
				}
				if b.Key() != want[r] {
					t.Errorf("source %d: key %s, want %s", r, b.Key(), want[r])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := svc.programs.len(); n != 2 {
		t.Errorf("program_cache_entries = %d, want 2", n)
	}
}

// TestBraidloadStreamMetrics replays braidload's default request stream (512
// requests cycled over 6 workloads × 2 cores, 60 iterations, width 8) one
// request at a time. Each of the 12 keys builds its program and simulates
// once; the other 500 requests are hits in both caches.
func TestBraidloadStreamMetrics(t *testing.T) {
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var bodies []string
	for _, prof := range []string{"gcc", "mcf", "gzip", "crafty", "art", "equake"} {
		for _, core := range []string{"ooo", "braid"} {
			data, err := json.Marshal(SimRequest{Workload: prof, Iters: 60, Core: core, Width: 8})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, string(data))
		}
	}
	for i := 0; i < 512; i++ {
		if resp, data := postJSON(t, ts.URL+"/v1/simulate", bodies[i%len(bodies)]); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
	}

	_, mdata := getURL(t, ts.URL+"/metrics")
	var m map[string]json.RawMessage
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"program_builds_total":  "12",
		"program_cache_entries": "12",
		"cache_misses":          "12",
		"sim_runs_total":        "12",
		"cache_hits":            "500",
	} {
		if got := string(m[name]); got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
}

// TestImageSHA256Source: a hash-only request is served from the program
// cache once an image request put the image there. Before that it is a 404
// unknown_program that builds and stores nothing. A malformed digest, and a request naming the image both ways,
// are 400s whether or not the server holds the image.
func TestImageSHA256Source(t *testing.T) {
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	b, err := Build(&SimRequest{Kernel: "dot"}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := isa.WriteImage(&img, b.Program); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img.Bytes())
	noBraid := false
	byImage := SimRequest{Image: base64.StdEncoding.EncodeToString(img.Bytes()), Config: &b.Config, Braid: &noBraid}
	byHash := byImage
	byHash.Image, byHash.ImageSHA256 = "", hex.EncodeToString(sum[:])
	cfg := uarch.InOrderConfig(4) // another configuration: the result cache misses
	byHashOther := byHash
	byHashOther.Config = &cfg
	both := byImage
	both.ImageSHA256 = byHash.ImageSHA256
	malformed := byHash
	malformed.ImageSHA256 = strings.Repeat("g", 64)
	short := byHash
	short.ImageSHA256 = byHash.ImageSHA256[:62]

	post := func(path string, v any) (int, []byte) {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, out := postJSON(t, ts.URL+path, string(data))
		return resp.StatusCode, out
	}
	simulate := func(req SimRequest, want int, kind string) rawResponse {
		t.Helper()
		status, data := post("/v1/simulate", req)
		if status != want {
			t.Fatalf("status %d (%s), want %d", status, data, want)
		}
		var rr rawResponse
		if status != http.StatusOK {
			var env errorEnvelope
			if err := json.Unmarshal(data, &env); err != nil || env.Error.Kind != kind {
				t.Fatalf("error body %s, want kind %s", data, kind)
			}
		} else if err := json.Unmarshal(data, &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}
	counters := func(builds, unknown int64, entries int) {
		t.Helper()
		if got := svc.met.programBuilds.Value(); got != builds {
			t.Errorf("program_builds_total = %d, want %d", got, builds)
		}
		if got := svc.met.unknownProgram.Value(); got != unknown {
			t.Errorf("unknown_program_total = %d, want %d", got, unknown)
		}
		if got := svc.programs.len(); got != entries {
			t.Errorf("program_cache_entries = %d, want %d", got, entries)
		}
	}

	simulate(byHash, http.StatusNotFound, "unknown_program")
	for _, bad := range []SimRequest{both, malformed, short} {
		simulate(bad, http.StatusBadRequest, "bad_request")
	}
	counters(0, 1, 0)

	simulate(byImage, http.StatusOK, "")
	rr := simulate(byHashOther, http.StatusOK, "")
	direct, err := uarch.SimulateChecked(context.Background(), b.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(direct); !bytes.Equal(rr.Stats, want) || rr.Source != "run" {
		t.Errorf("hash request served %s from %q, want a run giving %s", rr.Stats, rr.Source, want)
	}
	for _, bad := range []SimRequest{both, malformed, short} {
		simulate(bad, http.StatusBadRequest, "bad_request")
	}
	counters(1, 1, 1)
}
