package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"braid/internal/braid"
	"braid/internal/interp"
	"braid/internal/uarch"
)

// TestMemoCacheConcurrent hammers the simulation cache from many goroutines
// with overlapping points and asserts (a) exactly one simulation ran per
// unique key — the per-key latch suppresses duplicates — and (b) every value
// is bit-identical to a serial run over a fresh cache. `go test -race`
// checks the cache's synchronization on top.
func TestMemoCacheConcurrent(t *testing.T) {
	w := testSuite(t)
	benches := w.Benches[:4]
	cfgs := []uarch.Config{
		uarch.OutOfOrderConfig(8),
		uarch.BraidConfig(8),
		uarch.BraidConfig(4),
	}
	var points []Point
	for _, b := range benches {
		for _, cfg := range cfgs {
			points = append(points, Point{b, cfg.Core == uarch.CoreBraid, cfg})
		}
	}

	// A fresh cache over the same prepared benchmarks isolates the counter
	// from the rest of the test binary (the suite is shared).
	fresh := func() *Workloads {
		return &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 8}
	}

	serial := fresh()
	want := map[Point]float64{}
	for _, pt := range points {
		v, err := serial.IPC(pt.Bench, pt.Braided, pt.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[pt] = v
	}
	if got := serial.SimRuns(); got != uint64(len(points)) {
		t.Fatalf("serial baseline ran %d simulations, want %d", got, len(points))
	}

	// 8 goroutines × every point, interleaved from different offsets so the
	// same keys race from the start.
	conc := fresh()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := range points {
				pt := points[(i+off)%len(points)]
				v, err := conc.IPC(pt.Bench, pt.Braided, pt.Cfg)
				if err != nil {
					errs <- err
					return
				}
				if v != want[pt] {
					t.Errorf("%s braided=%v: concurrent IPC %v != serial %v",
						pt.Bench.Name, pt.Braided, v, want[pt])
					return
				}
			}
		}(g * len(points) / goroutines)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := conc.SimRuns(); got != uint64(len(points)) {
		t.Errorf("concurrent cache ran %d simulations for %d unique keys", got, len(points))
	}
}

// TestIPCAllMatchesSerial checks the batch fan-out returns the same values
// as one-at-a-time calls, with duplicates collapsed to a single simulation.
func TestIPCAllMatchesSerial(t *testing.T) {
	w := testSuite(t)
	cfg := uarch.BraidConfig(8)
	var pts []Point
	for _, b := range w.Benches[:3] {
		pts = append(pts, Point{b, true, cfg}, Point{b, true, cfg}) // duplicates
	}
	batch := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 8}
	got, err := batch.IPCAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	if runs := batch.SimRuns(); runs != 3 {
		t.Errorf("IPCAll ran %d simulations for 3 unique keys", runs)
	}
	for _, pt := range pts {
		want, err := w.IPC(pt.Bench, pt.Braided, pt.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[pt] != want {
			t.Errorf("%s: IPCAll %v != IPC %v", pt.Bench.Name, got[pt], want)
		}
	}
}

// TestLoadSuiteJobsDeterministic checks the parallel loader preserves the
// profile order and produces the same programs at any worker count.
func TestLoadSuiteJobsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	w1, err := LoadSuiteCtx(context.Background(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	w8, err := LoadSuiteCtx(context.Background(), 1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Benches) != len(w8.Benches) {
		t.Fatalf("suite sizes differ: %d vs %d", len(w1.Benches), len(w8.Benches))
	}
	for i := range w1.Benches {
		a, b := w1.Benches[i], w8.Benches[i]
		if a.Name != b.Name {
			t.Fatalf("bench %d: order differs: %s vs %s", i, a.Name, b.Name)
		}
		if len(a.Orig.Instrs) != len(b.Orig.Instrs) || len(a.Braided.Instrs) != len(b.Braided.Instrs) {
			t.Errorf("%s: program sizes differ between worker counts", a.Name)
		}
		ca, err := a.Characterize()
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.Characterize()
		if err != nil {
			t.Fatal(err)
		}
		if ca.Braids.Instrs != cb.Braids.Instrs {
			t.Errorf("%s: dynamic instruction counts differ: %d vs %d", a.Name, ca.Braids.Instrs, cb.Braids.Instrs)
		}
	}
}

// TestLoadSuiteCanceled: a suite context canceled before preparation stops
// it with an error wrapping uarch.ErrCanceled, which the sweep tools turn
// into exit status 130.
func TestLoadSuiteCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := LoadSuiteCtx(ctx, 1000, 1)
	if !errors.Is(err, uarch.ErrCanceled) {
		t.Fatalf("LoadSuiteCtx under a canceled context: %v, want an error wrapping uarch.ErrCanceled", err)
	}
	if !strings.Contains(err.Error(), "suite preparation stopped") {
		t.Errorf("error %q does not say suite preparation stopped", err)
	}
}

// TestCharacterizeOnFirstUse: preparing the suite and running sweeps that
// read only the programs interpret no program to the end, and a canceled
// suite context stops the characterization experiments before they do.
func TestCharacterizeOnFirstUse(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := LoadSuiteCtx(ctx, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	uncharacterized := func(when string) {
		t.Helper()
		var done []string
		for _, b := range w.Benches {
			if b.char != nil || b.charErr != nil {
				done = append(done, b.Name)
			}
		}
		if len(done) > 0 {
			t.Errorf("characterized %s: %s", when, strings.Join(done, " "))
		}
	}
	uncharacterized("by LoadSuiteCtx")
	for _, run := range []func(*Workloads) (*Result, error){Fig13, Fig1} {
		if _, err := run(w); err != nil {
			t.Fatal(err)
		}
	}
	uncharacterized("by Fig13 and Fig1")

	cancel()
	for _, id := range []string{"values", "table1", "table2", "table3"} {
		e, _ := ByID(id)
		if _, err := e.Run(w); !errors.Is(err, uarch.ErrCanceled) {
			t.Errorf("%s under a canceled suite context: %v, want an error wrapping uarch.ErrCanceled", id, err)
		}
	}
	uncharacterized("under a canceled suite context")
}

// TestCharacterizationMatchesDirectPasses: the accessor's results are
// bit-equal to the two interpreter passes suite preparation used to run.
func TestCharacterizationMatchesDirectPasses(t *testing.T) {
	w, err := LoadSuiteCtx(context.Background(), 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Benches {
		got, err := b.Characterize()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		ds := braid.NewDynamicStats(b.Compile)
		steps, err := interp.New(b.Braided).Run(50_000_000, func(si *interp.StepInfo) { ds.OnRetire(si.Index) })
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		vs, err := interp.Characterize(b.Orig, 50_000_000)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if uint64(got.Braids.Instrs) != steps {
			t.Errorf("%s: %d dynamic instructions, the braided program retires %d", b.Name, got.Braids.Instrs, steps)
		}
		if !reflect.DeepEqual(got.Braids, ds.Stats()) {
			t.Errorf("%s: braid statistics differ from a direct pass:\n got %+v\nwant %+v", b.Name, got.Braids, ds.Stats())
		}
		if !reflect.DeepEqual(got.Values, vs) {
			t.Errorf("%s: value statistics differ from interp.Characterize", b.Name)
		}
		if again, _ := b.Characterize(); again != got {
			t.Errorf("%s: a second call characterized again", b.Name)
		}
	}
}

// TestCharacterizationConcurrent runs three characterization experiments at
// once on a fresh suite, so they race to characterize the same benchmarks,
// and requires the Results of one-at-a-time runs. `go test -race` checks
// the accessor's synchronization on top.
func TestCharacterizationConcurrent(t *testing.T) {
	exps := []func(*Workloads) (*Result, error){Table1, Table3, ValueCharacterization}
	load := func() *Workloads {
		t.Helper()
		w, err := LoadSuiteCtx(context.Background(), 1000, 4)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	serial := load()
	want := make([]*Result, len(exps))
	for i, run := range exps {
		r, err := run(serial)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	conc := load()
	got := make([]*Result, len(exps))
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i, run := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(conc)
		}()
	}
	wg.Wait()
	for i := range exps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: concurrent Result differs from the serial one:\n%s\nvs\n%s", want[i].ID, got[i], want[i])
		}
	}
}
