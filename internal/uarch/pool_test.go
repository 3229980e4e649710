package uarch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"braid/internal/asm"
	"braid/internal/braid"
	"braid/internal/isa"
	"braid/internal/mem"
	"braid/internal/workload"
)

// poolPoint is one run of the recycling tests, exact when sp is zero.
type poolPoint struct {
	label   string
	prog    *isa.Program
	cfg     Config
	sp      Sampling
	cancel  bool // run under a context canceled while the run is under way
	observe bool // run with a retire observer, which must see every retirement
}

// run simulates the point through the recycling entry points and renders
// what it reports (see render), with the cache counters of the hierarchy it
// handed back when counters is set.
func (pt poolPoint) run(counters bool) string {
	ctx := context.Background()
	if pt.cancel {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		time.AfterFunc(2*time.Millisecond, cancel)
	}
	if pt.sp.Enabled() {
		st, est, err := SimulateSampled(ctx, pt.prog, pt.cfg, pt.sp)
		return render(st, est, "", err)
	}
	var onRetire func(RetireEvent)
	seen := uint64(0)
	if pt.observe {
		onRetire = func(RetireEvent) { seen++ }
	}
	st, err := SimulateObserved(ctx, pt.prog, pt.cfg, onRetire)
	mem := ""
	if counters && err == nil {
		mem = "mem{not recycled}"
		spares.Lock()
		if n := len(spares.hiers); n > 0 {
			mem = hierCounters(spares.hiers[n-1].Stats())
		}
		spares.Unlock()
	}
	out := render(st, nil, mem, err)
	if pt.observe && err == nil && seen != st.Retired {
		out += fmt.Sprintf(" (the observer saw %d retirements)", seen)
	}
	return out
}

// reference renders the point run on fresh memory, as run does: a fresh
// machine through the cycle loop for an exact point, a sampled run with
// recycling off for a sampled one.
func (pt poolPoint) reference(t *testing.T, counters bool) string {
	t.Helper()
	if pt.sp.Enabled() {
		var out string
		onFreshMemory(func() { out = pt.run(false) })
		return out
	}
	if pt.cancel {
		return pt.run(false) // a canceled run reports only its sentinel
	}
	m := freshMachine(t, pt.prog, pt.cfg)
	var st *Stats
	_, err := m.run(context.Background(), math.MaxUint64)
	mem := ""
	if err == nil {
		st = &m.stats
		if counters {
			mem = hierCounters(m.hier.Stats())
		}
	}
	return render(st, nil, mem, err)
}

func hierCounters(l1iH, l1iM, l1dH, l1dM, l2H, l2M uint64) string {
	return fmt.Sprintf("mem{L1I %d/%d L1D %d/%d L2 %d/%d}", l1iH, l1iM, l1dH, l1dM, l2H, l2M)
}

// render is everything a run reports: all of its Stats, internal
// accumulators included, its cache counters and its estimate, or else the
// sentinel it failed with.
func render(st *Stats, est *SampleEstimate, mem string, err error) string {
	if err != nil {
		var f *SimFault
		if errors.As(err, &f) {
			return "fault"
		}
		for _, s := range []error{ErrCycleLimit, ErrCanceled, ErrTimeout} {
			if errors.Is(err, s) {
				return "error: " + s.Error()
			}
		}
		return "error: " + err.Error()
	}
	out := fmt.Sprintf("%+v %s", *st, mem)
	if est != nil {
		out += fmt.Sprintf(" %+v", *est)
	}
	return out
}

// drainSpares empties the pool.
func drainSpares() {
	spares.Lock()
	spares.machines, spares.hiers = nil, nil
	spares.Unlock()
}

// onFreshMemory runs f with recycling off: every machine and hierarchy in it
// is built afresh and dropped afterwards.
func onFreshMemory(f func()) {
	drainSpares()
	limit := spareLimit
	spareLimit = func() int { return 0 }
	defer func() { spareLimit = limit }()
	f()
}

// poolPrograms generates gcc and mcf at iters iterations, each plain and
// braided.
func poolPrograms(t *testing.T, iters int) (gcc, gccB, mcf, mcfB *isa.Program) {
	t.Helper()
	var progs [4]*isa.Program
	for i, name := range []string{"gcc", "mcf"} {
		prof, _ := workload.ProfileByName(name)
		p, err := workload.Generate(prof, iters)
		if err != nil {
			t.Fatal(err)
		}
		res, err := braid.Compile(p, braid.Options{})
		if err != nil {
			t.Fatal(err)
		}
		progs[2*i], progs[2*i+1] = p, res.Prog
	}
	return progs[0], progs[1], progs[2], progs[3]
}

// TestRecycledRunsMatchFresh runs a sequence that hands each run's memory to
// the next across programs, cores, widths, memory geometries (Perfect
// included), and exact and sampled modes, with failed runs — a cycle limit
// hit mid-flight, a cancellation, an injected fault — each followed by a
// clean run, and one exact run with a retire observer. Every run must report
// exactly what it reports on fresh memory: all of its Stats, its cache
// counters, and its estimate.
func TestRecycledRunsMatchFresh(t *testing.T) {
	gcc, gccB, mcf, mcfB := poolPrograms(t, 120)
	spin, err := asm.Parse(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	perfect := BraidConfig(8)
	perfect.Mem.Perfect = true
	tiny := OutOfOrderConfig(16)
	tiny.Mem.L1I.SizeKB, tiny.Mem.L1I.Assoc = 4, 1
	tiny.Mem.L1D.SizeKB, tiny.Mem.L1D.Assoc = 4, 1
	tiny.Mem.L2.SizeKB = 64
	limited := OutOfOrderConfig(8)
	limited.MaxCycles = 400 // stops with instructions in flight
	sampledLimit := BraidConfig(8)
	sampledLimit.MaxCycles = 1200 // every interval fits; the estimate (~1,400) does not
	queued := BraidConfig(4)
	queued.BEUQueueBraids = true
	exc := BraidConfig(8)
	exc.ExceptionEvery, exc.ExceptionHandler = 500, 32
	sp := Sampling{Period: 1500, Detail: 300, Warmup: 200}
	pts := []poolPoint{
		{label: "ooo-8 mcf", prog: mcf, cfg: OutOfOrderConfig(8)},
		{label: "braid-8 mcf", prog: mcfB, cfg: BraidConfig(8)},
		{label: "sampled ooo-8 gcc", prog: gcc, cfg: OutOfOrderConfig(8), sp: sp},
		{label: "inorder-4 gcc", prog: gcc, cfg: InOrderConfig(4)},
		{label: "ooo-8 mcf cycle limit", prog: mcf, cfg: limited},
		{label: "depsteer-16 gcc", prog: gcc, cfg: DepSteerConfig(16)},
		{label: "braid-8 perfect memory", prog: gccB, cfg: perfect},
		{label: "ooo-8 spin canceled", prog: spin, cfg: OutOfOrderConfig(8), cancel: true},
		{label: "ooo-16 tiny caches", prog: mcf, cfg: tiny},
		{label: "sampled braid-8 mcf", prog: mcfB, cfg: BraidConfig(8), sp: sp},
		{label: "sampled braid-8 cycle limit", prog: gccB, cfg: sampledLimit, sp: sp},
		{label: "braid-4 queued gcc", prog: gccB, cfg: queued},
		{label: "braid-8 gcc observed", prog: gccB, cfg: BraidConfig(8), observe: true},
		{label: "sampled depsteer-8 mcf", prog: mcf, cfg: DepSteerConfig(8), sp: sp},
		{label: "braid-8 exceptions", prog: mcfB, cfg: exc},
		{label: "ooo-8 gcc", prog: gcc, cfg: OutOfOrderConfig(8)},
	}
	for i := range pts {
		pts[i].cfg.Paranoid = true
	}
	want := make([]string, len(pts))
	for i, pt := range pts {
		want[i] = pt.reference(t, true)
	}
	for _, i := range []int{4, 7, 10} {
		if !strings.HasPrefix(want[i], "error:") {
			t.Fatalf("%s: %s; the sequence needs it to fail", pts[i].label, want[i])
		}
	}

	drainSpares()
	for i, pt := range pts {
		spares.Lock()
		hiers := len(spares.hiers)
		spares.Unlock()
		if got := pt.run(true); got != want[i] {
			t.Errorf("%s, run %d: recycled memory changed the result\n got  %s\n want %s", pt.label, i, got, want[i])
		}
		spares.Lock()
		grew := len(spares.hiers) > hiers
		spares.Unlock()
		if pt.sp.Enabled() && grew {
			// The warmer's hierarchy outlives each interval machine.
			t.Errorf("%s: a sampled run recycled a hierarchy", pt.label)
		}
		if i == 7 {
			// An injected fault: the faulted machine and its hierarchy
			// must not reach the pool, and the next run must be clean.
			drainSpares()
			faulty := OutOfOrderConfig(8)
			faulty.Paranoid = true
			faulty.fault = &faultHook{at: 20, apply: dropCalendarEntry}
			if got := (poolPoint{prog: gcc, cfg: faulty}).run(false); got != "fault" {
				t.Fatalf("injected fault: got %s", got)
			}
			spares.Lock()
			m, h := len(spares.machines), len(spares.hiers)
			spares.Unlock()
			if m != 0 || h != 0 {
				t.Fatalf("a faulted run recycled %d machines and %d hierarchies", m, h)
			}
		}
	}
	spares.Lock()
	n := len(spares.machines)
	spares.Unlock()
	if n == 0 {
		t.Fatal("no machine was recycled")
	}
}

// TestWarmRunAllocations pins the per-run allocation contract: once the
// pool, the warm prototype and the program's trace exist, an exact run
// allocates its returned Stats and little else. Without recycling every run
// allocated 480–710 KB in ~300–840 objects (the hierarchy copy, the arena's
// chunks, the calendar, the rings and the grown queues). A retire observer
// adds nothing to that.
func TestWarmRunAllocations(t *testing.T) {
	gcc, gccB, _, _ := poolPrograms(t, 60)
	drainSpares() // no hierarchy of another geometry left by earlier tests
	var mispredicts uint64
	observe := func(ev RetireEvent) {
		if ev.Mispredicted {
			mispredicts++
		}
	}
	for _, c := range []struct {
		label    string
		prog     *isa.Program
		cfg      Config
		onRetire func(RetireEvent)
	}{
		{"inorder-8", gcc, InOrderConfig(8), nil},
		{"depsteer-8", gcc, DepSteerConfig(8), nil},
		{"ooo-8", gcc, OutOfOrderConfig(8), nil},
		{"braid-8", gccB, BraidConfig(8), nil},
		{"ooo-16", gcc, OutOfOrderConfig(16), nil},
		{"braid-8 observed", gccB, BraidConfig(8), observe},
	} {
		run := func() {
			if _, err := SimulateObserved(context.Background(), c.prog, c.cfg, c.onRetire); err != nil {
				t.Fatal(err)
			}
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 20
		objects := testing.AllocsPerRun(runs, run) // plus one warm-up call
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		if objects > 8 || bytes > 16<<10 {
			t.Errorf("%s: a warm run allocates %.0f objects, %d bytes; want at most 8 and 16 KiB", c.label, objects, bytes)
		}
	}
	if mispredicts == 0 {
		t.Error("the observer saw no mispredicted branch")
	}
}

// TestRecyclingConcurrent runs exact and sampled points, clean and failing,
// from several goroutines at once, each in its own order, so machines and
// hierarchies pass between goroutines and between configurations. Every
// result must equal the point's fresh-memory run. CI runs it under -race
// -count=10.
func TestRecyclingConcurrent(t *testing.T) {
	gcc, gccB, mcf, mcfB := poolPrograms(t, 30)
	perfect := OutOfOrderConfig(8)
	perfect.Mem.Perfect = true
	limited := BraidConfig(8)
	limited.MaxCycles = 300
	sp := Sampling{Period: 1000, Detail: 200, Warmup: 100}
	pts := []poolPoint{
		{label: "ooo-8 gcc", prog: gcc, cfg: OutOfOrderConfig(8)},
		{label: "braid-8 mcf", prog: mcfB, cfg: BraidConfig(8)},
		{label: "inorder-4 mcf", prog: mcf, cfg: InOrderConfig(4)},
		{label: "depsteer-16 gcc", prog: gcc, cfg: DepSteerConfig(16)},
		{label: "ooo-8 perfect memory", prog: mcf, cfg: perfect},
		{label: "braid-8 cycle limit", prog: gccB, cfg: limited},
		{label: "sampled braid-8 gcc", prog: gccB, cfg: BraidConfig(8), sp: sp},
		{label: "sampled ooo-8 mcf", prog: mcf, cfg: OutOfOrderConfig(8), sp: sp},
	}
	want := make([]string, len(pts))
	for i, pt := range pts {
		want[i] = pt.reference(t, false)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(pts))
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range pts {
				i := (k + 3*g) % len(pts) // a different order per goroutine
				if g%2 == 1 {
					i = len(pts) - 1 - i
				}
				if got := pts[i].run(false); got != want[i] {
					errs <- fmt.Sprintf("goroutine %d, %s:\n got  %s\n want %s", g, pts[i].label, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestWarmPrototypesBounded: the warm prototypes' arrays stay within
// maxProtoBytes, the oldest dropped first, and a dropped key warms again to
// the same state.
func TestWarmPrototypesBounded(t *testing.T) {
	cfg := mem.DefaultConfig()
	cfg.L2.SizeKB = mem.MaxCacheKB // ~4.5 MB of arrays per prototype
	key := func(textLen int) warmKey { return warmKey{cfg: cfg, textLen: textLen} }
	first, err := warmProto(key(1))
	if err != nil {
		t.Fatal(err)
	}
	want := hierCounters(first.Stats())
	n := maxProtoBytes/first.Footprint() + 2
	for i := 2; i <= n; i++ {
		if _, err := warmProto(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	warmCache.Lock()
	bytes := warmCache.bytes
	_, kept := warmCache.protos[key(1)]
	warmCache.Unlock()
	if bytes > maxProtoBytes {
		t.Errorf("%d prototypes hold %d bytes, over the %d bound", n, bytes, maxProtoBytes)
	}
	if kept {
		t.Error("the oldest prototype is still held")
	}
	again, err := warmProto(key(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := hierCounters(again.Stats()); got != want || again == first {
		t.Errorf("a dropped prototype came back as %s (same object: %v), want a new one at %s", got, again == first, want)
	}
}
