package remote

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"braid/internal/chaos"
	"braid/internal/experiments"
	"braid/internal/isa"
	"braid/internal/service"
	"braid/internal/uarch"
)

// fleetFault is a fault schedule for the second of a sweep's two backends:
// a chaos proxy's schedule, or the answers a re-signing relay alters.
type fleetFault struct {
	name  string
	sched func(points int) chaos.Schedule // the schedule for a sweep of so many points
	wrong func(n int64) bool              // instead of sched: resignRelay's choice of answers
	paced bool                            // sweep in waves of 8, 400 ms apart, across several flap periods
}

var (
	// faultFlap is down 2 s and up 2 s, starting down.
	faultFlap = fleetFault{name: "flap 2s/2s", paced: true, sched: func(int) chaos.Schedule {
		return chaos.Flap(2*time.Second, 2*time.Second).Schedule
	}}
	// faultKilled resets every request from the backend's simulate that
	// falls a third of the way into the sweep: it owns about half the points.
	faultKilled = fleetFault{name: "killed a third in", sched: func(points int) chaos.Schedule {
		dead := int64(points / 6)
		return func(r *http.Request, n int64) chaos.Fault {
			if n >= dead {
				return chaos.Fault{Kind: chaos.Reset}
			}
			return chaos.Fault{Kind: chaos.Pass}
		}
	}}
	fault503 = fleetFault{name: "503 every 2nd simulate", sched: func(int) chaos.Schedule {
		return chaos.EveryN(2, chaos.Fault{Kind: chaos.Status, Status: http.StatusServiceUnavailable})
	}}
	faultCorrupt = fleetFault{name: "corrupt every 2nd simulate", sched: func(int) chaos.Schedule {
		return chaos.EveryN(2, chaos.Fault{Kind: chaos.Corrupt})
	}}
	// faultWrong and faultWrongHalf are a backend that computes wrong Stats
	// and signs them, on every answer or on every second one.
	faultWrong     = fleetFault{name: "wrong on every simulate, re-signed", wrong: func(int64) bool { return true }}
	faultWrongHalf = fleetFault{name: "wrong on every 2nd simulate, re-signed", wrong: func(n int64) bool { return n%2 == 0 }}
)

// faultRelay fronts the faulty backend and counts the faults it injected.
type faultRelay interface {
	http.Handler
	Faults() int64
}

// relay builds f's front for a backend serving svc at backendURL in a sweep
// of so many points.
func (f fleetFault) relay(t testing.TB, svc http.Handler, backendURL string, points int) faultRelay {
	if f.wrong != nil {
		return &resignRelay{next: svc, wrong: f.wrong}
	}
	cp, err := chaos.New(backendURL, f.sched(points))
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// resignRelay fronts a braidd handler like a backend that computes wrong
// Stats and signs them: on each answered simulate that wrong picks (the
// nth, counted from 1), it alters the last digit of Cycles and stamps the
// altered body's SHA-256. The body digest passes, so only a known answer or
// local re-simulation can tell.
type resignRelay struct {
	next    http.Handler
	wrong   func(n int64) bool
	seq     atomic.Int64 // answered simulates
	altered atomic.Int64
}

func (rr *resignRelay) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	rr.next.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if r.URL.Path == "/v1/simulate" && rec.Code == http.StatusOK && rr.wrong(rr.seq.Add(1)) {
		key := []byte(`"Cycles":`)
		at := bytes.Index(body, key) + len(key)
		for body[at+1] >= '0' && body[at+1] <= '9' {
			at++
		}
		body[at] = '0' + (body[at]-'0'+1)%10
		sum := sha256.Sum256(body)
		rec.Header().Set(bodySHAHeader, hex.EncodeToString(sum[:]))
		rr.altered.Add(1)
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// Faults is the number of answers the relay altered.
func (rr *resignRelay) Faults() int64 { return rr.altered.Load() }

// fleetPolicy is the pool under test: its ejection paths, its verification
// and its timing.
type fleetPolicy struct {
	requestPath bool          // eject after consecutive failed attempts
	probe       time.Duration // health-prober interval (0: no prober)
	verify      int           // Options.VerifyEvery (0: off)
	tune        func(*Pool)   // shortens the default timing (nil: keeps it)
}

// fleetSweep is a suite sweep that runs the same points against every
// fault and policy.
type fleetSweep struct {
	dyn    uint64
	jobs   int
	points func(*experiments.Workloads) []experiments.Point
	want   []float64 // local IPC of each point, filled by the first run
}

// fleetOutcome is one sweep's pool counters and cost.
type fleetOutcome struct {
	Stats
	injected int64
	wall     time.Duration
	wrong    int // points answered with an IPC that differs from local simulation
	flagged  int // points that failed verification
	differ   int // points that failed or whose IPC differs from local simulation
}

// soakPoints is every suite benchmark on the 2-, 4- and 8-wide out-of-order
// cores and the 8-wide braid core: 104 points.
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

// widthPoints is every suite benchmark on the out-of-order and braid cores
// at widths 2, 4, 8 and 16: 104 points, or 208 with both cores.
func widthPoints(braid bool) func(*experiments.Workloads) []experiments.Point {
	return func(w *experiments.Workloads) []experiments.Point {
		var points []experiments.Point
		for _, b := range w.Benches {
			for _, width := range []int{2, 4, 8, 16} {
				points = append(points, experiments.Point{Bench: b, Cfg: uarch.OutOfOrderConfig(width)})
				if braid {
					points = append(points, experiments.Point{Bench: b, Braided: true, Cfg: uarch.BraidConfig(width)})
				}
			}
		}
		return points
	}
}

// runFleet sweeps sw against two in-process braidd, the second behind f's
// relay, through a pool set up by pol, and compares every point with local
// simulation. Points go to the pool one call each, sw.jobs at a time, so a
// failed point, a verification error included, ends only itself.
func runFleet(t testing.TB, sw *fleetSweep, f fleetFault, pol fleetPolicy) fleetOutcome {
	t.Helper()
	w, err := experiments.LoadSuiteCtx(context.Background(), sw.dyn, 0)
	if err != nil {
		t.Fatal(err)
	}
	points := sw.points(w)
	programs := make([]*isa.Program, len(points))
	for i, pt := range points {
		programs[i] = pt.Bench.Orig
		if pt.Braided {
			programs[i] = pt.Bench.Braided
		}
	}
	if sw.want == nil {
		for i, pt := range points {
			st, err := uarch.SimulateChecked(context.Background(), programs[i], pt.Cfg)
			if err != nil {
				t.Fatalf("local %s: %v", pt.Bench.Name, err)
			}
			sw.want = append(sw.want, st.IPC())
		}
	}

	healthy := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer healthy.Close()
	svc := service.New(service.Config{Workers: 2}).Handler()
	backend := httptest.NewServer(svc)
	defer backend.Close()
	relay := f.relay(t, svc, backend.URL, len(points))
	proxy := httptest.NewServer(relay)
	defer proxy.Close()
	pool, err := NewPool(Options{Backends: []string{healthy.URL, proxy.URL}, VerifyEvery: pol.verify})
	if err != nil {
		t.Fatal(err)
	}
	if pol.tune != nil {
		pol.tune(pool)
	}
	if !pol.requestPath {
		pool.ejectAfter = 0
	}
	if pol.probe > 0 {
		stop := pool.StartProber(context.Background(), pol.probe)
		defer stop()
	}

	wave := len(points)
	if f.paced {
		wave = 8
	}
	var out fleetOutcome
	var mu sync.Mutex
	t0 := time.Now()
	for start := 0; start < len(points); start += wave {
		end := min(start+wave, len(points))
		next := make(chan int)
		var wg sync.WaitGroup
		for j := 0; j < min(sw.jobs, end-start); j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					st, err := pool.Simulate(context.Background(), programs[i], points[i].Cfg)
					var ve *VerifyError
					mu.Lock()
					switch {
					case errors.As(err, &ve):
						out.flagged++
					case err != nil:
						t.Logf("%s: %s: %v", f.name, points[i].Bench.Name, err)
						out.differ++
					case st.IPC() != sw.want[i]:
						out.wrong++
					}
					mu.Unlock()
				}
			}()
		}
		for i := start; i < end; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		if f.paced && end < len(points) {
			time.Sleep(400 * time.Millisecond)
		}
	}
	out.Stats, out.injected, out.wall = pool.Snapshot(), relay.Faults(), time.Since(t0)
	out.differ += out.flagged + out.wrong
	t.Logf("%s, ejection on request path %v, probe %v, verify %d: %v; pool %s; %d faults injected",
		f.name, pol.requestPath, pol.probe, pol.verify, out.wall.Round(time.Millisecond), pool, out.injected)
	return out
}

// soakSweep is the chaos soak's sweep: 104 small points, 8 at a time.
func soakSweep() *fleetSweep { return &fleetSweep{dyn: 1500, jobs: 8, points: soakPoints} }

// soakTiming retries within 10 ms, ejects after two failed attempts and
// cools down for 1 s.
func soakTiming(p *Pool) {
	p.maxAttempts, p.baseBackoff, p.maxBackoff = 6, time.Millisecond, 10*time.Millisecond
	p.ejectAfter, p.cooldown = 2, time.Second
}

// TestChaosSoakEjectionHalvesWastedAttempts is the self-healing acceptance
// soak: with one backend flapping down 2s / up 2s and one healthy, a paced
// sweep must converge bit-identically to local results with zero failed
// design points both with ejection (request path and a 250 ms prober) and
// without — and ejection must pay for itself by issuing at least 50% fewer
// failed request attempts under the identical fault schedule.
func TestChaosSoakEjectionHalvesWastedAttempts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos soak")
	}
	sw := soakSweep()
	on := runFleet(t, sw, faultFlap, fleetPolicy{requestPath: true, probe: 250 * time.Millisecond, tune: soakTiming})
	off := runFleet(t, sw, faultFlap, fleetPolicy{tune: soakTiming})

	if on.differ != 0 || off.differ != 0 {
		t.Errorf("%d points with ejection and %d without failed or differ from local simulation", on.differ, off.differ)
	}
	if on.injected == 0 || off.injected == 0 {
		t.Fatalf("a proxy never injected a fault (on=%d off=%d); the soak proved nothing", on.injected, off.injected)
	}
	if on.Ejections == 0 {
		t.Error("the flapping backend was never ejected")
	}
	if on.ShortCircuits == 0 {
		t.Error("no attempt skipped the ejected backend; ejection saved nothing")
	}
	if off.FailedAttempts == 0 {
		t.Fatal("the run without ejection recorded no failed attempts; the comparison is vacuous")
	}
	if 2*on.FailedAttempts > off.FailedAttempts {
		t.Errorf("ejection saved too little: %d failed attempts with it vs %d without (need ≥50%% fewer)",
			on.FailedAttempts, off.FailedAttempts)
	}
}

// TestEjectionSavesKilledBackend kills one of two backends a third of the
// way into a sweep, with no prober: the request path must eject it and cut
// the failed attempts by at least half against a pool that never ejects.
func TestEjectionSavesKilledBackend(t *testing.T) {
	sw := &fleetSweep{dyn: 1500, jobs: 2, points: widthPoints(false)}
	fast := func(p *Pool) { p.baseBackoff, p.maxBackoff = time.Millisecond, 10*time.Millisecond }
	on := runFleet(t, sw, faultKilled, fleetPolicy{requestPath: true, tune: fast})
	off := runFleet(t, sw, faultKilled, fleetPolicy{tune: fast})
	if on.differ != 0 || off.differ != 0 {
		t.Errorf("%d points with ejection and %d without failed or differ from local simulation", on.differ, off.differ)
	}
	if on.Ejections == 0 || off.FailedAttempts < 10 {
		t.Fatalf("%d ejections, %d failed attempts without ejection: the backend did not die as scheduled",
			on.Ejections, off.FailedAttempts)
	}
	if 2*on.FailedAttempts > off.FailedAttempts {
		t.Errorf("ejection saved too little: %d failed attempts with it vs %d without (need ≥50%% fewer)",
			on.FailedAttempts, off.FailedAttempts)
	}
}

// TestPassingCanaryKeepsFlakyBackendEjected: a backend that answers 503 to
// every second simulate passes every second canary. The prober ejects it on
// a failed canary and a passing one must not put it back, or the request
// path pays for it again after every passing tick.
func TestPassingCanaryKeepsFlakyBackendEjected(t *testing.T) {
	const bound = 8 // measured: 0–6 with the prober only ejecting, 10–37 when passing canaries reinstate
	sw := &fleetSweep{dyn: 1500, jobs: 2, points: widthPoints(false)}
	out := runFleet(t, sw, fault503, fleetPolicy{requestPath: true, probe: 20 * time.Millisecond, tune: func(p *Pool) {
		p.baseBackoff, p.maxBackoff, p.cooldown = time.Millisecond, 10*time.Millisecond, 100*time.Millisecond
	}})
	if out.differ != 0 {
		t.Errorf("%d points failed or differ from local simulation", out.differ)
	}
	if out.Ejections == 0 {
		t.Fatal("the flaky backend was never ejected")
	}
	if out.FailedAttempts > bound {
		t.Errorf("%d failed attempts against a backend failing every second simulate, want at most %d",
			out.FailedAttempts, bound)
	}
}

// TestVerifyFailureEjects: a backend that re-signs wrong Stats passes the
// body digest, so with VerifyEvery 1 only local re-simulation catches it. A
// failed verification ejects the backend that answered, so no more points
// reach it than the jobs that had one in flight: the cooldown outlasts the
// sweep, so no trial reaches it either.
func TestVerifyFailureEjects(t *testing.T) {
	sw := &fleetSweep{dyn: 1500, jobs: 2, points: widthPoints(false)}
	out := runFleet(t, sw, faultWrong, fleetPolicy{requestPath: true, verify: 1, tune: func(p *Pool) {
		p.cooldown = time.Minute
	}})
	if out.Ejections == 0 {
		t.Error("a backend failing verification was never ejected")
	}
	if out.flagged > sw.jobs {
		t.Errorf("%d points failed verification, want at most %d (one per job)", out.flagged, sw.jobs)
	}
	if out.wrong != 0 || out.differ != out.flagged {
		t.Errorf("%d wrong results accepted and %d points failed otherwise, want 0 and 0",
			out.wrong, out.differ-out.flagged-out.wrong)
	}
}

var ablationOut = flag.String("ablation", "", "run the fleet ablation matrix and write it to this JSON file")

// TestFleetAblation measures what each ejection path buys under four fault
// schedules, and what each corruption detector catches under three more,
// and writes BENCH_fleet_ablation.json. It runs only with -ablation, for
// several minutes:
//
//	go test ./internal/remote -run TestFleetAblation -timeout 30m -ablation ../../BENCH_fleet_ablation.json
func TestFleetAblation(t *testing.T) {
	if *ablationOut == "" {
		t.Skip("run with -ablation PATH")
	}
	const repeats = 5
	const probe = 250 * time.Millisecond
	type arm struct {
		name   string
		policy fleetPolicy
	}
	arms := []arm{
		{"no ejection", fleetPolicy{}},
		{"request path only", fleetPolicy{requestPath: true}},
		{"prober only", fleetPolicy{probe: probe}},
		{"both", fleetPolicy{requestPath: true, probe: probe}},
	}
	// The body digest is always on: there is no switch to turn it off.
	detectorArms := []arm{
		{"digest only", fleetPolicy{requestPath: true}},
		{"digest + prober", fleetPolicy{requestPath: true, probe: probe}},
		{"digest + verify 4", fleetPolicy{requestPath: true, verify: 4}},
		{"digest + verify 1", fleetPolicy{requestPath: true, verify: 1}},
	}
	const suiteSetup = "208 points at -dyn 10000, 2 jobs, default pool timing"
	suite := &fleetSweep{dyn: 10000, jobs: 2, points: widthPoints(true)}
	schedules := []struct {
		fault fleetFault
		sweep *fleetSweep
		tune  func(*Pool)
		setup string
	}{
		{faultFlap, soakSweep(), soakTiming,
			"the chaos soak: 104 points at -dyn 1500 in waves of 8, 400 ms apart, 8 jobs; 6 attempts, backoff 1-10 ms, ejection after 2 failed attempts, 1 s cooldown"},
		{faultKilled, suite, nil, suiteSetup},
		{fault503, suite, nil, suiteSetup},
		{faultCorrupt, suite, nil, suiteSetup},
	}
	detectorFaults := []fleetFault{faultCorrupt, faultWrong, faultWrongHalf}

	type cell struct {
		Schedule        string    `json:"schedule"`
		Arm             string    `json:"arm"`
		FailedMedian    uint64    `json:"failed_attempts_median"`
		FailedMin       uint64    `json:"failed_attempts_min"`
		FailedMax       uint64    `json:"failed_attempts_max"`
		Failed          []uint64  `json:"failed_attempts"`
		WallS           []float64 `json:"wall_s"`
		Ejections       []uint64  `json:"ejections"`
		ShortCircuits   []uint64  `json:"short_circuits"`
		DifferFromLocal int       `json:"differ_from_local"`
	}
	type detectorCell struct {
		Schedule     string   `json:"schedule"`
		Arm          string   `json:"arm"`
		WrongMedian  int      `json:"wrong_accepted_median"`
		WrongMin     int      `json:"wrong_accepted_min"`
		WrongMax     int      `json:"wrong_accepted_max"`
		Wrong        []int    `json:"wrong_accepted"`
		VerifyErrors []int    `json:"verify_errors"`
		Failed       []uint64 `json:"failed_attempts"`
		Ejections    []uint64 `json:"ejections"`
	}
	report := struct {
		Command    string            `json:"command"`
		Host       string            `json:"host"`
		Go         string            `json:"go"`
		GOMAXPROCS int               `json:"gomaxprocs"`
		Repeats    int               `json:"repeats"`
		Probe      string            `json:"probe"`
		Setups     map[string]string `json:"setups"`
		Cells      []cell            `json:"cells"`
		Detectors  []detectorCell    `json:"detectors"`
	}{
		Command:    "go test ./internal/remote -run TestFleetAblation -timeout 30m -ablation ../../BENCH_fleet_ablation.json",
		Host:       hostName(),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Repeats:    repeats,
		Probe:      probe.String(),
		Setups:     map[string]string{},
	}
	for _, s := range schedules {
		report.Setups[s.fault.name] = s.setup
		for _, a := range arms {
			c := cell{Schedule: s.fault.name, Arm: a.name}
			pol := a.policy
			pol.tune = s.tune
			for r := 0; r < repeats; r++ {
				out := runFleet(t, s.sweep, s.fault, pol)
				c.Failed = append(c.Failed, out.FailedAttempts)
				c.WallS = append(c.WallS, out.wall.Seconds())
				c.Ejections = append(c.Ejections, out.Ejections)
				c.ShortCircuits = append(c.ShortCircuits, out.ShortCircuits)
				c.DifferFromLocal += out.differ
			}
			sorted := slices.Clone(c.Failed)
			slices.Sort(sorted)
			c.FailedMin, c.FailedMedian, c.FailedMax = sorted[0], sorted[repeats/2], sorted[repeats-1]
			if c.DifferFromLocal != 0 {
				t.Errorf("%s, %s: %d results differ from local simulation", c.Schedule, c.Arm, c.DifferFromLocal)
			}
			report.Cells = append(report.Cells, c)
		}
	}
	for _, f := range detectorFaults {
		report.Setups[f.name] = suiteSetup
		for _, a := range detectorArms {
			c := detectorCell{Schedule: f.name, Arm: a.name}
			for r := 0; r < repeats; r++ {
				out := runFleet(t, suite, f, a.policy)
				if failed := out.differ - out.wrong - out.flagged; failed != 0 {
					t.Errorf("%s, %s: %d points failed", f.name, a.name, failed)
				}
				c.Wrong = append(c.Wrong, out.wrong)
				c.VerifyErrors = append(c.VerifyErrors, out.flagged)
				c.Failed = append(c.Failed, out.FailedAttempts)
				c.Ejections = append(c.Ejections, out.Ejections)
			}
			sorted := slices.Clone(c.Wrong)
			slices.Sort(sorted)
			c.WrongMin, c.WrongMedian, c.WrongMax = sorted[0], sorted[repeats/2], sorted[repeats-1]
			if c.WrongMax != 0 && (f.wrong == nil || a.policy.verify == 1) {
				t.Errorf("%s, %s: up to %d wrong results accepted, want 0", f.name, a.name, c.WrongMax)
			}
			report.Detectors = append(report.Detectors, c)
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*ablationOut, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// hostName describes the machine: its OS, architecture, CPU count and, on
// Linux, CPU model.
func hostName() string {
	host := runtime.GOOS + "/" + runtime.GOARCH + ", " + strconv.Itoa(runtime.NumCPU()) + " CPUs"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if m := regexp.MustCompile(`(?m)^model name\s*:\s*(.+)$`).FindSubmatch(info); m != nil {
			host += ", " + string(m[1])
		}
	}
	return host
}
