package uarch

import (
	"context"
	"math"
	"sync"
	"testing"
	"unsafe"

	"braid/internal/asm"
	"braid/internal/braid"
	"braid/internal/interp"
	"braid/internal/isa"
	"braid/internal/workload"
)

func generated(t *testing.T, name string, iters int) *isa.Program {
	t.Helper()
	prof, ok := workload.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	p, err := workload.Generate(prof, iters)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func cachedReplay(p *isa.Program) bool {
	replayCache.Lock()
	defer replayCache.Unlock()
	_, ok := replayCache.m[p]
	return ok
}

// geometries is a default-predictor configuration and one with a different
// perceptron geometry, so a program's replay entry holds two mispredict sets.
func geometries() []Config {
	small := OutOfOrderConfig(8)
	small.PredEntries, small.PredHistory = 128, 16
	return []Config{OutOfOrderConfig(8), small}
}

// TestReleaseProgramRebuildsIdentically: releasing a program drops its replay
// state, mispredict sets included, and the next simulations rebuild it to the
// same Stats under either predictor geometry.
func TestReleaseProgramRebuildsIdentically(t *testing.T) {
	p := generated(t, "gcc", 40)
	var want []*Stats
	for _, cfg := range geometries() {
		st, err := Simulate(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st)
	}
	if !cachedReplay(p) {
		t.Fatal("simulation cached no replay state")
	}
	e := replayFor(p)
	e.mu.Lock()
	sets := len(e.preds)
	e.mu.Unlock()
	if sets != 2 {
		t.Fatalf("replay entry holds %d mispredict sets, want one per geometry (2)", sets)
	}
	ReleaseProgram(p)
	if cachedReplay(p) {
		t.Fatal("ReleaseProgram kept the replay state")
	}
	for i, cfg := range geometries() {
		got, err := Simulate(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want[i] {
			t.Errorf("geometry %d: Stats after release differ:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	ReleaseProgram(p)
}

// TestConcurrentColdReplayBuilds simulates two programs at once from cold,
// three Machines per program over two predictor geometries, so trace growth,
// metadata and mispredict-set builds of both programs run concurrently (run
// with -race). Traces grow 7 instructions at a time, so fetch keeps reading
// bit words that another Machine's growth is setting. Each result must equal
// the serial one.
func TestConcurrentColdReplayBuilds(t *testing.T) {
	withTraceStep(t, 7)
	progs := []*isa.Program{generated(t, "mcf", 40), generated(t, "equake", 40)}
	cfgs := append(geometries(), InOrderConfig(4))
	want := make([][]*Stats, len(progs))
	for i, p := range progs {
		for _, cfg := range cfgs {
			st, err := Simulate(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], st)
		}
		ReleaseProgram(p)
	}

	got := make([][]*Stats, len(progs))
	errs := make(chan error, len(progs)*len(cfgs))
	var wg sync.WaitGroup
	for i, p := range progs {
		got[i] = make([]*Stats, len(cfgs))
		for j, cfg := range cfgs {
			wg.Add(1)
			go func(i, j int, p *isa.Program, cfg Config) {
				defer wg.Done()
				st, err := Simulate(p, cfg)
				if err != nil {
					errs <- err
					return
				}
				got[i][j] = st
			}(i, j, p, cfg)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, p := range progs {
		for j := range cfgs {
			if *got[i][j] != *want[i][j] {
				t.Errorf("%s config %d: concurrent cold Stats differ from serial:\n got %+v\nwant %+v",
					p.Name, j, got[i][j], want[i][j])
			}
		}
		ReleaseProgram(p)
	}
}

// suitePrograms returns every profile's program at iters iterations, plain
// and braided.
func suitePrograms(t *testing.T, iters int) []*isa.Program {
	t.Helper()
	var ps []*isa.Program
	for _, prof := range workload.Profiles() {
		orig, braided := genWorkload(t, prof.Name, iters)
		ps = append(ps, orig, braided)
	}
	return ps
}

// TestTraceWalkMatchesInterpreter: walking a program's compact trace with a
// cursor yields exactly the interpreter's (index, taken, address) sequence,
// and ends exactly where the interpreter stops, whether at HALT or by
// running off the end of the text.
func TestTraceWalkMatchesInterpreter(t *testing.T) {
	progs := suitePrograms(t, 10)
	for _, k := range workload.Kernels() {
		res, err := braid.Compile(k, braid.Options{})
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, k, res.Prog)
	}
	for _, src := range []string{edgeFloatSrc, edgeIntSrc} {
		p, err := asm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	// A loop with a load, a store and a conditional branch whose program
	// ends by running off its text: the HALT the assembler requires is cut.
	runoff, err := asm.Parse(`
.name runoff
.data 64
	ldimm r1, #65536
	ldimm r2, #5
loop:
	ldq   r3, 0(r1)
	add   r3, r3, r2
	stq   r3, 8(r1)
	sub   r2, r2, #1
	bne   r2, loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	runoff.Instrs = runoff.Instrs[:len(runoff.Instrs)-1]
	progs = append(progs, runoff)

	for _, p := range progs {
		tr := wholeTraceOf(p)
		if !tr.ended {
			t.Fatalf("%s: the trace did not reach the program's end", p.Name)
		}
		meta := programMeta(p)
		im := interp.New(p)
		var (
			info                 interp.StepInfo
			c                    cursor
			conds, loads, stores uint64
		)
		for c.pos < tr.n {
			if err := im.Step(&info); err != nil {
				t.Fatalf("%s: interpreter stopped after %d instructions, trace holds %d", p.Name, c.pos, tr.n)
			}
			pos := c.pos
			pc, taken, addr := c.next(tr, meta)
			if pc != info.Index || taken != info.Taken || addr != info.Addr {
				t.Fatalf("%s instruction %d: trace (%d, %v, %#x), interpreter (%d, %v, %#x)",
					p.Name, pos, pc, taken, addr, info.Index, info.Taken, info.Addr)
			}
			switch {
			case info.Instr.IsCondBranch():
				conds++
			case info.Instr.IsLoad():
				loads++
			case info.Instr.IsStore():
				stores++
			}
		}
		if err := im.Step(&info); err == nil {
			t.Fatalf("%s: trace ends after %d instructions, the interpreter does not", p.Name, tr.n)
		}
		if tr.condBranches != conds || tr.loads != loads || tr.stores != stores {
			t.Errorf("%s: trace totals %d/%d/%d (branches/loads/stores), walk counted %d/%d/%d",
				p.Name, tr.condBranches, tr.loads, tr.stores, conds, loads, stores)
		}
		if c.br != int(conds) || c.mem != int(loads+stores) {
			t.Errorf("%s: cursor ended at branch %d, memory %d; want %d, %d", p.Name, c.br, c.mem, conds, loads+stores)
		}
		ReleaseProgram(p)
	}
}

// wholeTraceOf grows p's shared trace to the program's end.
func wholeTraceOf(p *isa.Program) *trace {
	tr, _, _ := replayFor(p).upTo(p, math.MaxInt, &Config{PerfectBP: true})
	return tr
}

// withTraceStep makes replay entries grow step instructions at a time until
// the test ends.
func withTraceStep(t *testing.T, step int) {
	old := traceStep
	traceStep = step
	t.Cleanup(func() { traceStep = old })
}

// TestTraceGrowthMatchesOneStep: a trace grown 7 instructions at a time gives
// the Stats and estimates of one pre-executed in a single step, exact and
// sampled, on all four cores and two predictor geometries. The small steps
// make bit words continue across steps and fetch reach the end of its prefix
// every few cycles. The exact machines run in lockstep, so each grows the
// trace the others read and extends the other geometry's mispredict set.
func TestTraceGrowthMatchesOneStep(t *testing.T) {
	orig, braided := genWorkload(t, "gcc", 150)
	sp := Sampling{Period: 8000, Detail: 2000, Warmup: 2000}
	small := OutOfOrderConfig(8)
	small.PredEntries, small.PredHistory = 256, 32
	cases := []struct {
		p   *isa.Program
		cfg Config
	}{
		{orig, InOrderConfig(4)},
		{orig, DepSteerConfig(8)},
		{orig, OutOfOrderConfig(8)},
		{orig, small},
		{braided, BraidConfig(8)},
	}
	type result struct {
		exact, sampled Stats
		est            SampleEstimate
	}
	run := func(step int) []result {
		withTraceStep(t, step)
		ReleaseProgram(orig)
		ReleaseProgram(braided)
		ms := make([]*Machine, len(cases))
		for i, c := range cases {
			ms[i] = freshMachine(t, c.p, c.cfg)
		}
		for running := len(ms); running > 0; {
			for _, m := range ms {
				if m.fe.done && m.rob.len() == 0 && m.fe.queue.len() == 0 {
					continue
				}
				if m.cycle >= m.cfg.MaxCycles {
					t.Fatalf("%s: cycle budget exhausted", m.cfg.Core)
				}
				if m.step() {
					m.stats.Cycles = m.cycle
					running--
				}
			}
		}
		ReleaseProgram(orig)
		ReleaseProgram(braided)
		out := make([]result, len(cases))
		for i, c := range cases {
			sampled, est, err := SimulateSampled(context.Background(), c.p, c.cfg, sp)
			if err != nil {
				t.Fatal(err)
			}
			if est.Exact {
				t.Fatalf("%s: did not sample; lengthen the program", c.cfg.Core)
			}
			out[i] = result{ms[i].stats, *sampled, *est}
		}
		return out
	}
	whole := run(1 << 40)
	small7 := run(7)
	for i, c := range cases {
		w, g := whole[i], small7[i]
		if g.exact != w.exact {
			t.Errorf("%s exact: Stats differ under 7-instruction growth:\n got  %+v\n want %+v", c.cfg.Core, g.exact, w.exact)
		}
		if g.sampled != w.sampled || g.est != w.est {
			t.Errorf("%s sampled: Stats or estimate differ under 7-instruction growth:\n got  %+v %+v\n want %+v %+v",
				c.cfg.Core, g.sampled, g.est, w.sampled, w.est)
		}
	}
	ReleaseProgram(orig)
	ReleaseProgram(braided)
}

// replayBytes is what p's replay entry holds for cfg: the trace, the static
// metadata and cfg's mispredict set.
func replayBytes(p *isa.Program, cfg *Config) int {
	e := replayFor(p)
	tr, bits, _ := e.upTo(p, math.MaxInt, cfg)
	return int(unsafe.Sizeof(*tr)) + 8*cap(tr.taken) + 8*cap(tr.addrs) +
		int(unsafe.Sizeof(staticMeta{}))*cap(e.metaOf(p)) + 8*cap(bits)
}

// TestReplayFootprint bounds the replay layer's memory: every suite program,
// sized as a sweep sizes it, costs at most 2 bytes per dynamic instruction
// for its trace, metadata and default mispredict set (a trace entry per
// instruction took 16). Once the program has ended, its entry holds neither
// the pre-executor nor a perceptron.
func TestReplayFootprint(t *testing.T) {
	const dyn = 100_000
	cfg := OutOfOrderConfig(8)
	var bytes, instrs int
	for _, prof := range workload.Profiles() {
		probe := generated(t, prof.Name, 8)
		fs, err := interp.RunProgram(probe, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		orig, braided := genWorkload(t, prof.Name, max(dyn/int(max(fs.Steps/8, 1)), 4))
		for _, p := range []*isa.Program{orig, braided} {
			b, n := replayBytes(p, &cfg), wholeTraceOf(p).n
			if perInstr := float64(b) / float64(n); perInstr > 2 {
				t.Errorf("%s: replay holds %d bytes for %d instructions (%.2f per instruction, bound 2)", p.Name, b, n, perInstr)
			}
			if e := replayFor(p); e.im != nil || e.preds[predGeometry(&cfg)].pred != nil {
				t.Errorf("%s: the ended program's entry still holds its pre-executor or perceptron", p.Name)
			}
			bytes += b
			instrs += n
			ReleaseProgram(p)
		}
	}
	t.Logf("suite replay: %d bytes for %d instructions (%.2f per instruction)", bytes, instrs, float64(bytes)/float64(instrs))

	// An exact run stops fetching at the halt, so the growth step whose last
	// instruction is the halt must itself end the trace.
	p := generated(t, "gcc", 8)
	withTraceStep(t, wholeTraceOf(p).n)
	ReleaseProgram(p)
	defer ReleaseProgram(p)
	if _, err := SimulateChecked(context.Background(), p, cfg); err != nil {
		t.Fatal(err)
	}
	if e := replayFor(p); !e.tr.ended || e.im != nil || e.preds[predGeometry(&cfg)].pred != nil {
		t.Errorf("%s: a step ending on the halt left the trace open (ended %v) or kept the pre-executor or perceptron", p.Name, e.tr.ended)
	}
}
