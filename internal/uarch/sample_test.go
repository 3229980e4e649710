package uarch

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"braid/internal/interp"
	"braid/internal/isa"
)

func TestSamplingValidate(t *testing.T) {
	cases := []struct {
		sp Sampling
		ok bool
	}{
		{Sampling{}, true}, // disabled
		{Sampling{Period: 4000, Detail: 400, Warmup: 200}, true},    // normal
		{Sampling{Period: 4000, Detail: 400}, true},                 // no warm-up
		{Sampling{Period: 0, Detail: 400}, false},                   // no period
		{Sampling{Period: 4000, Detail: 0}, false},                  // no detail
		{Sampling{Period: 400, Detail: 400}, false},                 // Period == Detail
		{Sampling{Period: 400, Detail: 500}, false},                 // Period < Detail
		{Sampling{Period: 4000, Detail: 2000, Warmup: 2000}, false}, // window fills the period
	}
	for _, c := range cases {
		if err := c.sp.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%s) = %v, want ok=%v", c.sp, err, c.ok)
		}
	}
}

func TestParseSampling(t *testing.T) {
	sp, err := ParseSampling("8000:400:200")
	if err != nil {
		t.Fatal(err)
	}
	if want := (Sampling{Period: 8000, Detail: 400, Warmup: 200}); sp != want {
		t.Fatalf("parsed %+v, want %+v", sp, want)
	}
	if rt, err := ParseSampling(sp.String()); err != nil || rt != sp {
		t.Fatalf("round trip %q -> %+v, %v", sp.String(), rt, err)
	}
	if sp, err := ParseSampling(""); err != nil || sp.Enabled() {
		t.Fatalf("empty spec: %+v, %v", sp, err)
	}
	// The last two wrap warmup+detail past zero.
	for _, bad := range []string{"8000", "a:b", "400:400", "1:2:3:4",
		"100:1:18446744073709551615", "100:18446744073709551615:1"} {
		if _, err := ParseSampling(bad); err == nil {
			t.Errorf("ParseSampling(%q) accepted", bad)
		}
	}
}

// FuzzParseSampling: an accepted spec is a geometry that validates — a
// positive detail window, and warm-up plus detail strictly inside the
// period, summed without wrapping — and round-trips through String.
func FuzzParseSampling(f *testing.F) {
	for _, spec := range []string{"8000:400:200", "", "8000", "a:b", "400:400", "1:2:3:4", "100000:5000",
		"100:1:18446744073709551615"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sp, err := ParseSampling(spec)
		if err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("ParseSampling(%q) accepted %+v, which does not validate: %v", spec, sp, err)
		}
		if sp.Enabled() && (sp.Detail == 0 || sp.Warmup >= sp.Period || sp.Detail >= sp.Period-sp.Warmup) {
			t.Fatalf("ParseSampling(%q) accepted %+v: warm-up plus detail does not fit in the period", spec, sp)
		}
		if rt, err := ParseSampling(sp.String()); err != nil || rt != sp {
			t.Fatalf("ParseSampling(%q) = %+v does not round-trip: %q -> %+v, %v", spec, sp, sp.String(), rt, err)
		}
	})
}

// TestSampledMatchesExactCounts is the architectural-equivalence property:
// sampled and exact runs replay the same trace, so they must agree exactly on
// every architectural count — and the program's final architectural state is
// the interpreter's either way.
func TestSampledMatchesExactCounts(t *testing.T) {
	sp := Sampling{Period: 2000, Detail: 300, Warmup: 100}
	for _, name := range []string{"gcc", "mcf"} {
		orig, braided := genWorkload(t, name, 400)
		for _, c := range []struct {
			tag string
			p   *isa.Program
			cfg Config
		}{
			{"ooo", orig, OutOfOrderConfig(8)},
			{"braid", braided, BraidConfig(8)},
			{"inorder", orig, InOrderConfig(8)},
		} {
			c.cfg.Paranoid = true
			exact, err := Simulate(c.p, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s exact: %v", name, c.tag, err)
			}
			st, est, err := SimulateSampled(context.Background(), c.p, c.cfg, sp)
			if err != nil {
				t.Fatalf("%s/%s sampled: %v", name, c.tag, err)
			}
			if est == nil || est.Exact {
				t.Fatalf("%s/%s: expected a genuine sampled run, got %+v", name, c.tag, est)
			}
			if st.Retired != exact.Retired || st.Fetched != exact.Fetched {
				t.Errorf("%s/%s: sampled retired/fetched %d/%d, exact %d/%d",
					name, c.tag, st.Retired, st.Fetched, exact.Retired, exact.Fetched)
			}
			if st.CondBranches != exact.CondBranches || st.Mispredicts != exact.Mispredicts {
				t.Errorf("%s/%s: sampled branches %d/%d mispredicts, exact %d/%d",
					name, c.tag, st.CondBranches, st.Mispredicts, exact.CondBranches, exact.Mispredicts)
			}
			if st.Loads != exact.Loads || st.StoreCount != exact.StoreCount {
				t.Errorf("%s/%s: sampled loads/stores %d/%d, exact %d/%d",
					name, c.tag, st.Loads, st.StoreCount, exact.Loads, exact.StoreCount)
			}
			if est.DetailedInstrs+est.FFwdInstrs != st.Retired {
				t.Errorf("%s/%s: detailed %d + fastforward %d != retired %d",
					name, c.tag, est.DetailedInstrs, est.FFwdInstrs, st.Retired)
			}
			if est.FFwdInstrs == 0 {
				t.Errorf("%s/%s: nothing was fast-forwarded", name, c.tag)
			}
			// Architectural execution is the interpreter's in both modes.
			fsA, err := interp.RunProgram(c.p, 10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			fsB, err := interp.RunProgram(c.p, 10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !fsA.Equal(fsB) {
				t.Errorf("%s/%s: final architectural state diverged", name, c.tag)
			}
			if st.Retired != fsA.Steps {
				t.Errorf("%s/%s: sampled retired %d, interpreter executed %d", name, c.tag, st.Retired, fsA.Steps)
			}
		}
	}
}

// TestSampledIPCAccuracy is a single-point accuracy smoke: the estimate must
// land near the exact IPC (the committed accuracy harness asserts the tight
// suite-wide bound; this guards against gross estimator breakage).
func TestSampledIPCAccuracy(t *testing.T) {
	// Warm-up and detail windows must clear the ROB-fill transient (~512
	// instructions of ramp, then a retire burst): short windows bias the
	// estimate, so the geometry here mirrors the committed harness defaults
	// scaled down to test size.
	orig, braided := genWorkload(t, "gcc", 2000)
	sp := Sampling{Period: 12000, Detail: 4000, Warmup: 4000}
	for _, c := range []struct {
		tag string
		p   *isa.Program
		cfg Config
	}{
		{"ooo", orig, OutOfOrderConfig(8)},
		{"braid", braided, BraidConfig(8)},
	} {
		exact, err := Simulate(c.p, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, est, err := SimulateSampled(context.Background(), c.p, c.cfg, sp)
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(st.IPC()-exact.IPC()) / exact.IPC()
		t.Logf("%s: exact IPC %.4f, sampled %.4f (err %.2f%%, ci ±%.2f%%, %d intervals)",
			c.tag, exact.IPC(), st.IPC(), 100*relErr, 100*est.IPCRelCI, est.Intervals)
		if relErr > 0.05 {
			t.Errorf("%s: sampled IPC %.4f off exact %.4f by %.1f%%", c.tag, st.IPC(), exact.IPC(), 100*relErr)
		}
		if est.Intervals < 2 {
			t.Errorf("%s: only %d measurement intervals", c.tag, est.Intervals)
		}
	}
}

// TestSampledShortProgramFallsBackExact: a program shorter than one sampling
// period (which subsumes shorter-than-one-warmup) runs exactly, bit-identical
// to exact mode, with the estimate marked Exact.
func TestSampledShortProgramFallsBackExact(t *testing.T) {
	orig, _ := genWorkload(t, "gcc", 8) // a few hundred instructions
	cfg := OutOfOrderConfig(8)
	exact, err := Simulate(orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := Sampling{Period: 1 << 20, Detail: 1 << 10, Warmup: 1 << 9}
	st, est, err := SimulateSampled(context.Background(), orig, cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	if est == nil || !est.Exact {
		t.Fatalf("short program did not fall back to exact: %+v", est)
	}
	if *st != *exact {
		t.Errorf("fallback stats differ from exact:\n sampled %+v\n exact   %+v", *st, *exact)
	}
}

// TestSampledCycleLimit: a budget exact mode cannot finish within must also
// fail the sampled run with ErrCycleLimit, not yield a bogus estimate.
func TestSampledCycleLimit(t *testing.T) {
	orig, _ := genWorkload(t, "gcc", 400)
	cfg := OutOfOrderConfig(8)
	cfg.MaxCycles = 500 // far below the ~10k+ cycles this program needs
	if _, err := Simulate(orig, cfg); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("exact run under tiny budget: %v, want ErrCycleLimit", err)
	}
	sp := Sampling{Period: 2000, Detail: 300, Warmup: 100}
	if _, _, err := SimulateSampled(context.Background(), orig, cfg, sp); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("sampled run under tiny budget: %v, want ErrCycleLimit", err)
	}

	// A budget the intervals fit in but the estimated whole run does not:
	// still ErrCycleLimit (the estimate must agree with what exact mode
	// would report, not fabricate a result past the budget).
	exact, err := Simulate(orig, OutOfOrderConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = exact.Cycles / 2
	if _, _, err := SimulateSampled(context.Background(), orig, cfg, sp); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("sampled run with half the needed budget: %v, want ErrCycleLimit", err)
	}
}

// TestSampledCancelMidFastForward: a canceled context stops the run during
// functional fast-forward (the poll runs before each interval, so the
// cancellation deterministically lands on the fast-forward path).
func TestSampledCancelMidFastForward(t *testing.T) {
	orig, _ := genWorkload(t, "gcc", 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp := Sampling{Period: 2000, Detail: 300, Warmup: 100}
	_, _, err := SimulateSampled(ctx, orig, OutOfOrderConfig(8), sp)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled sampled run: %v, want ErrCanceled", err)
	}

	// An expired deadline surfaces as ErrTimeout through the same path.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	_, _, err = SimulateSampled(dctx, orig, OutOfOrderConfig(8), sp)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline-expired sampled run: %v, want ErrTimeout", err)
	}
}

// TestSampledDeterministic: the estimator is pure — same program, config, and
// geometry give identical Stats and estimate every time (remote verification
// relies on this).
func TestSampledDeterministic(t *testing.T) {
	_, braided := genWorkload(t, "mcf", 400)
	cfg := BraidConfig(8)
	sp := Sampling{Period: 2000, Detail: 300, Warmup: 100}
	st1, est1, err := SimulateSampled(context.Background(), braided, cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	st2, est2, err := SimulateSampled(context.Background(), braided, cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	if *st1 != *st2 {
		t.Errorf("sampled stats not deterministic:\n %+v\n %+v", *st1, *st2)
	}
	if *est1 != *est2 {
		t.Errorf("sampled estimate not deterministic:\n %+v\n %+v", *est1, *est2)
	}
}
