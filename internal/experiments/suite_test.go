package experiments

import (
	"context"
	"sync"
	"testing"

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
		if a.DynInstrs != b.DynInstrs {
			t.Errorf("%s: dynamic instruction counts differ: %d vs %d", a.Name, a.DynInstrs, b.DynInstrs)
		}
	}
}
