package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"braid/internal/isa"
	"braid/internal/uarch"
)

// faultyCfg is the configuration faultRunner fails: the braid machine with
// the paranoid checker on, so its memo key is not BraidConfig(8)'s.
func faultyCfg() uarch.Config {
	cfg := uarch.BraidConfig(8)
	cfg.Paranoid = true
	return cfg
}

// faultRunner simulates in-process like a suite without a Runner, except
// that a point on faultyCfg runs under a retire observer that panics at its
// 50th retirement. uarch.SimulateObserved contains the panic as a
// *uarch.SimFault that says where the run stopped, as it does a corruption
// the paranoid checker catches.
type faultRunner struct{}

func (faultRunner) SimulateSampled(ctx context.Context, p *isa.Program, cfg uarch.Config, sp uarch.Sampling) (*uarch.Stats, *uarch.SampleEstimate, error) {
	if cfg != faultyCfg() {
		return uarch.SimulateSampled(ctx, p, cfg, sp)
	}
	retired := 0
	st, err := uarch.SimulateObserved(ctx, p, cfg, func(uarch.RetireEvent) {
		if retired++; retired == 50 {
			panic("observer fault")
		}
	})
	return st, nil, err
}

// TestWorkerPoolSurvivesFault is the tentpole guarantee: one benchmark's
// simulator fault is contained — the other points finish with bit-identical
// IPCs at any worker count, the faulty point is omitted from the result map,
// the failure is recorded, and a crash artifact lands in the crash directory.
func TestWorkerPoolSurvivesFault(t *testing.T) {
	w := testSuite(t)
	clean := uarch.BraidConfig(8)
	var pts []Point
	for _, b := range w.Benches[:4] {
		pts = append(pts, Point{b, true, clean})
	}
	faulty := Point{w.Benches[0], true, faultyCfg()}
	pts = append(pts, faulty)

	// Serial baseline over a fresh cache, clean points only.
	serial := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1}
	want := map[Point]float64{}
	for _, pt := range pts[:4] {
		v, err := serial.IPC(pt.Bench, pt.Braided, pt.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[pt] = v
	}

	for _, jobs := range []int{1, 4, 8} {
		crash := t.TempDir()
		wj := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: jobs, runner: faultRunner{}}
		wj.SetCrashDir(crash)
		got, err := wj.IPCAll(pts)
		if err != nil {
			t.Fatalf("j=%d: IPCAll aborted on a contained fault: %v", jobs, err)
		}
		if _, ok := got[faulty]; ok {
			t.Errorf("j=%d: faulty point present in results", jobs)
		}
		for pt, v := range want {
			g, ok := got[pt]
			if !ok {
				t.Errorf("j=%d: clean point %s missing", jobs, pt.Bench.Name)
				continue
			}
			if g != v {
				t.Errorf("j=%d: %s IPC %v != serial %v", jobs, pt.Bench.Name, g, v)
			}
		}
		fails := wj.Failures()
		if len(fails) != 1 {
			t.Fatalf("j=%d: %d failures recorded, want 1: %v", jobs, len(fails), fails)
		}
		var sf *uarch.SimFault
		if !errors.As(fails[0].Err, &sf) {
			t.Fatalf("j=%d: failure is %T, want *uarch.SimFault: %v", jobs, fails[0].Err, fails[0].Err)
		}
		label := fmt.Sprintf("%s (%s braided=true): ", faulty.Bench.Name, faulty.Cfg.Core)
		if s := fails[0].String(); strings.Count(s, label) != 1 {
			t.Errorf("j=%d: failure line %q names %q %d times, want once", jobs, s, label, strings.Count(s, label))
		}
		if fails[0].Artifact == "" {
			t.Fatalf("j=%d: no crash artifact written", jobs)
		}
		if _, err := os.Stat(fails[0].Artifact); err != nil {
			t.Errorf("j=%d: artifact JSON missing: %v", jobs, err)
		}
		brd := fails[0].Artifact[:len(fails[0].Artifact)-len(".json")] + ".brd"
		if _, err := os.Stat(brd); err != nil {
			t.Errorf("j=%d: artifact program image missing: %v", jobs, err)
		}
	}
}

// TestCrashArtifactRoundTrip: the repro pair (program image + config JSON)
// reloads into the exact program and a replayable configuration, paranoid
// forced on, at the cycle the fault stopped the run.
func TestCrashArtifactRoundTrip(t *testing.T) {
	w := testSuite(t)
	b := w.Benches[0]
	crash := t.TempDir()
	ws := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1, runner: faultRunner{}}
	ws.SetCrashDir(crash)
	_, err := ws.IPC(b, true, faultyCfg())
	var sf *uarch.SimFault
	if !errors.As(err, &sf) {
		t.Fatalf("want a *uarch.SimFault, got %v", err)
	}
	fails := ws.Failures()
	if len(fails) != 1 || fails[0].Artifact == "" {
		t.Fatalf("no artifact recorded: %v", fails)
	}

	art, p, err := ReadCrashArtifact(fails[0].Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if art.Bench != b.Name || !art.Braided {
		t.Errorf("artifact names %s braided=%v, want %s braided=true", art.Bench, art.Braided, b.Name)
	}
	if art.Panic != fmt.Sprint(sf.Panic) || art.Cycle != sf.Cycle || art.Cycle == 0 {
		t.Errorf("artifact says cycle %d, panic %q; the fault stopped at cycle %d with %v", art.Cycle, art.Panic, sf.Cycle, sf.Panic)
	}
	if !art.Config.Paranoid {
		t.Error("artifact config must force Paranoid for the replay")
	}
	if len(p.Instrs) != len(b.Braided.Instrs) {
		t.Fatalf("program image round trip: %d instructions, want %d", len(p.Instrs), len(b.Braided.Instrs))
	}
	// The artifact's config is runnable as-is: the replay completes (the
	// fault came from the test's observer, so a clean engine passes its own
	// audit).
	if _, err := uarch.SimulateChecked(context.Background(), p, art.Config); err != nil {
		t.Fatalf("replaying artifact config: %v", err)
	}
	if filepath.Dir(art.Program) != crash {
		t.Errorf("program image %s not in crash dir %s", art.Program, crash)
	}
}

// TestTransientErrorsNotMemoized: a timed-out simulation must not poison its
// memo key — clearing the timeout and asking again reruns and succeeds.
func TestTransientErrorsNotMemoized(t *testing.T) {
	w := testSuite(t)
	b := w.Benches[0]
	cfg := uarch.BraidConfig(8)
	ws := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1}
	ws.SetTimeout(time.Nanosecond)
	_, err := ws.IPC(b, true, cfg)
	if !errors.Is(err, uarch.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	ws.SetTimeout(0)
	v, err := ws.IPC(b, true, cfg)
	if err != nil {
		t.Fatalf("timeout poisoned the memo key: %v", err)
	}
	if v <= 0 {
		t.Fatalf("retried IPC %v", v)
	}
	if runs := ws.SimRuns(); runs != 2 {
		t.Errorf("ran %d simulations, want 2 (timeout evicted, success memoized)", runs)
	}
	// The success IS memoized: a third ask is a cache hit.
	if _, err := ws.IPC(b, true, cfg); err != nil {
		t.Fatal(err)
	}
	if runs := ws.SimRuns(); runs != 2 {
		t.Errorf("successful result not memoized: %d runs", runs)
	}
}

// TestDeterministicFaultsStayMemoized: a simulator fault is deterministic, so
// re-asking the same point must replay the memoized error, not re-simulate.
func TestDeterministicFaultsStayMemoized(t *testing.T) {
	w := testSuite(t)
	b := w.Benches[0]
	cfg := faultyCfg()
	ws := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1, runner: faultRunner{}}
	_, err1 := ws.IPC(b, true, cfg)
	_, err2 := ws.IPC(b, true, cfg)
	var sf *uarch.SimFault
	if !errors.As(err1, &sf) || !errors.As(err2, &sf) {
		t.Fatalf("want *SimFault twice, got %v / %v", err1, err2)
	}
	if runs := ws.SimRuns(); runs != 1 {
		t.Errorf("deterministic fault re-simulated: %d runs, want 1", runs)
	}
}

// TestCancellationAbortsBatch: whole-suite cancellation is NOT contained —
// IPCAll reports it so the caller can stop cleanly (and resume later).
func TestCancellationAbortsBatch(t *testing.T) {
	w := testSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ws := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 4}
	ws.ctx = ctx
	var pts []Point
	for _, b := range w.Benches[:4] {
		pts = append(pts, Point{b, true, uarch.BraidConfig(8)})
	}
	_, err := ws.IPCAll(pts)
	if !errors.Is(err, uarch.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestCheckpointResume: points simulated under -checkpoint reload in a fresh
// process-equivalent (a fresh Workloads over the same suite) bit-identically
// and without re-simulating. This is what makes kill -INT + -resume produce
// identical final output.
func TestCheckpointResume(t *testing.T) {
	w := testSuite(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	var pts []Point
	for _, b := range w.Benches[:3] {
		pts = append(pts, Point{b, true, uarch.BraidConfig(8)}, Point{b, false, uarch.OutOfOrderConfig(8)})
	}

	first := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 4}
	if _, err := first.OpenCheckpoint(ckpt, false); err != nil {
		t.Fatal(err)
	}
	want, err := first.IPCAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(pts) {
		t.Fatalf("baseline incomplete: %d/%d points", len(want), len(pts))
	}

	second := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 4}
	restored, err := second.OpenCheckpoint(ckpt, true)
	if err != nil {
		t.Fatal(err)
	}
	defer second.CloseCheckpoint()
	if restored != len(pts) {
		t.Fatalf("restored %d points, want %d", restored, len(pts))
	}
	got, err := second.IPCAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	for pt, v := range want {
		if got[pt] != v {
			t.Errorf("%s braided=%v: resumed IPC %v != original %v", pt.Bench.Name, pt.Braided, got[pt], v)
		}
	}
	if runs := second.SimRuns(); runs != 0 {
		t.Errorf("resume re-simulated %d points; the JSONL Config must round-trip to the exact memo key", runs)
	}
}

// TestCheckpointTornTail: a crash mid-append leaves a torn final line; resume
// must keep every whole record, ignore the tear, and cut it off the file so
// the points appended afterwards survive the next resume too.
func TestCheckpointTornTail(t *testing.T) {
	w := testSuite(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	b := w.Benches[0]

	first := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1}
	if _, err := first.OpenCheckpoint(ckpt, false); err != nil {
		t.Fatal(err)
	}
	if _, err := first.IPC(b, true, uarch.BraidConfig(8)); err != nil {
		t.Fatal(err)
	}
	if err := first.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"bench":"gcc","braided":true,"ipc":1.2`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	second := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1}
	restored, err := second.OpenCheckpoint(ckpt, true)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d records, want the 1 whole one", restored)
	}
	if _, err := second.IPC(b, true, uarch.BraidConfig(8)); err != nil {
		t.Fatal(err)
	}
	if runs := second.SimRuns(); runs != 0 {
		t.Errorf("whole record before the tear was not restored (%d runs)", runs)
	}
	// Two more points after the resume: they must land on lines of their
	// own, not glued onto the torn half.
	if _, err := second.IPC(b, false, uarch.OutOfOrderConfig(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := second.IPC(w.Benches[1], true, uarch.BraidConfig(8)); err != nil {
		t.Fatal(err)
	}
	if err := second.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}

	third := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1}
	restored, err = third.OpenCheckpoint(ckpt, true)
	if err != nil {
		t.Fatalf("resume after a torn-tail resume: %v", err)
	}
	defer third.CloseCheckpoint()
	if restored != 3 {
		t.Fatalf("restored %d records, want 3", restored)
	}
}

// TestCheckpointFromOtherProgramsRestoresNothing: records carry the digest of
// the program they simulated, so a journal written for a suite at one -dyn
// (one iteration count per benchmark) restores nothing into a suite at
// another, whose programs differ, and the resumed point simulates afresh.
func TestCheckpointFromOtherProgramsRestoresNothing(t *testing.T) {
	w := testSuite(t)
	b := w.Benches[0]
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	first := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1}
	if _, err := first.OpenCheckpoint(ckpt, false); err != nil {
		t.Fatal(err)
	}
	old, err := first.IPC(b, true, uarch.BraidConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}

	longer, err := prepare(b.Profile, 2*4000)
	if err != nil {
		t.Fatal(err)
	}
	second := &Workloads{Benches: []*Bench{longer}, memo: map[memoKey]*memoCell{}, jobs: 1}
	restored, err := second.OpenCheckpoint(ckpt, true)
	if err != nil {
		t.Fatal(err)
	}
	defer second.CloseCheckpoint()
	if restored != 0 {
		t.Fatalf("restored %d records from another -dyn's journal, want 0", restored)
	}
	got, err := second.IPC(longer, true, uarch.BraidConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if second.SimRuns() != 1 || got == old {
		t.Errorf("served %v after %d simulations; want a fresh simulation, not the journal's %v", got, second.SimRuns(), old)
	}

	same := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1}
	if restored, err := same.OpenCheckpoint(ckpt, true); err != nil || restored != 1 {
		t.Fatalf("resume into the journal's own suite: restored %d, err %v; want 1, nil", restored, err)
	}
	same.CloseCheckpoint()
}

// generationJournal is the head of a braidtune -checkpoint file from when
// braidtune kept its own journal of completed generations (-workloads gcc
// -dyn 2000 -seed 1 -pop 2 -budget 2).
const generationJournal = `{"kind":"meta","meta":{"lattice":1,"seed":1,"pop":2,"budget":2,"workloads":["gcc"],"dyn_target":2000}}
{"kind":"gen","evals":2,"population":[{"core":1,"width":3,"retire":1,"beus":3,"iq":1,"window":0,"erf":3,"rports":0,"wports":1,"bypass":0,"predent":2,"predhist":1}],"fresh":[]}
`

// digestlessRecord is a checkpoint line as braidbench -checkpoint wrote it
// before records carried their program's digest (gcc, braided, the Table 4
// braid/8w machine). It names a benchmark but not which of its programs,
// at which -dyn, it measured.
const digestlessRecord = `{"bench":"gcc","braided":true,"ipc":3.1817375886524824,"cfg":{"Core":2,"FetchWidth":8,"FetchBranches":3,"FrontDepth":8,"AllocWidth":4,"RenameSrc":8,"MispredictMin":19,"PerfectBP":false,"PredEntries":0,"PredHistory":0,"IssueWidth":8,"RetireWidth":0,"TotalFUs":16,"ROB":512,"RFEntries":8,"RFReadPorts":6,"RFWritePorts":3,"BypassLevels":1,"BypassValues":2,"ExtWakeupExtra":0,"DeadValueRelease":true,"Schedulers":0,"SchedEntries":0,"SteerFIFOs":0,"SteerFIFODeep":0,"BEUs":8,"BEUFIFO":32,"BEUWindow":2,"BEUFUs":2,"BEUQueueBraids":false,"Clusters":0,"InterClusterDelay":0,"Mem":{"L1I":{"SizeKB":64,"Assoc":4,"LineB":64,"Latency":3},"L1D":{"SizeKB":64,"Assoc":2,"LineB":64,"Latency":3},"L2":{"SizeKB":1024,"Assoc":8,"LineB":64,"Latency":6},"MemLatency":400,"Perfect":false},"LatIntALU":1,"LatIntMul":4,"LatIntDiv":12,"LatFPAdd":4,"LatFPMul":4,"LatFPDiv":12,"LatAGU":1,"ExceptionEvery":0,"ExceptionHandler":0,"MaxCycles":50000000,"Paranoid":false,"NoFastForward":false}}
`

// TestCheckpointRefusesGenerationJournal: a generation record decodes as a
// point record with no benchmark, and a record written before the digest
// names no program. Resume must refuse either file, naming the record,
// rather than restore a zero point or another program's result.
func TestCheckpointRefusesGenerationJournal(t *testing.T) {
	w := testSuite(t)
	for _, c := range []struct{ name, journal string }{
		{"generation journal", generationJournal},
		{"record without a digest", digestlessRecord},
	} {
		ckpt := filepath.Join(t.TempDir(), "tune.jsonl")
		if err := os.WriteFile(ckpt, []byte(c.journal), 0o644); err != nil {
			t.Fatal(err)
		}
		ws := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1}
		_, err := ws.OpenCheckpoint(ckpt, true)
		if err == nil || !strings.Contains(err.Error(), "record 1 is not a simulation point") {
			t.Fatalf("%s: resume: err %v, want one naming record 1", c.name, err)
		}
		if len(ws.memo) != 0 {
			t.Errorf("%s: refused journal left %d memo cells", c.name, len(ws.memo))
		}
		// The refusal closed the file: starting over without resume works.
		if _, err := ws.OpenCheckpoint(ckpt, false); err != nil {
			t.Fatal(err)
		}
		ws.CloseCheckpoint()
	}
}

// TestCheckpointWriteErrorSurfaces: a checkpoint that cannot be written (a
// full disk) does not stop the sweep, but CloseCheckpoint reports it.
func TestCheckpointWriteErrorSurfaces(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	w := testSuite(t)
	ws := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1}
	if _, err := ws.OpenCheckpoint("/dev/full", false); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.IPC(w.Benches[0], true, uarch.BraidConfig(8)); err != nil {
		t.Fatalf("a failed checkpoint write failed the point: %v", err)
	}
	if err := ws.CloseCheckpoint(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("CloseCheckpoint: %v, want ENOSPC", err)
	}
}

// TestCheckpointCorruptMiddleRejected: corruption anywhere but the final line
// is not a crash signature — resume must refuse it loudly.
func TestCheckpointCorruptMiddleRejected(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.jsonl")
	content := `{"bench":"gcc","braided":true,"ipc":1.2,"cfg":` + "\n" +
		`{"bench":"mcf","braided":false,"ipc":0.9,"cfg":{}}` + "\n"
	if err := os.WriteFile(ckpt, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ws := &Workloads{memo: map[memoKey]*memoCell{}, jobs: 1}
	if _, err := ws.OpenCheckpoint(ckpt, true); err == nil {
		t.Fatal("mid-file corruption silently accepted")
	}
}

// TestFaultyPointsNotCheckpointed: a contained fault is never journaled,
// only successes are, so a resumed sweep runs the point again.
func TestFaultyPointsNotCheckpointed(t *testing.T) {
	w := testSuite(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	ws := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1, runner: faultRunner{}}
	if _, err := ws.OpenCheckpoint(ckpt, false); err != nil {
		t.Fatal(err)
	}
	ws.IPC(w.Benches[0], true, faultyCfg())
	ws.CloseCheckpoint()
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("faulty point leaked into the checkpoint: %q", data)
	}
}

// TestCheckpointDoubleResumeLastWins: a kill → resume → kill → resume cycle
// appends keys the checkpoint already holds. Reload must deduplicate
// repeated keys with last-write-wins, counting unique keys — not lines — as
// restored.
func TestCheckpointDoubleResumeLastWins(t *testing.T) {
	w := testSuite(t)
	b := w.Benches[0]
	cfg := uarch.BraidConfig(8)
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")

	first := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1}
	if _, err := first.OpenCheckpoint(ckpt, false); err != nil {
		t.Fatal(err)
	}
	want, err := first.IPC(b, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}

	// The key again, as a rerun after a resume appends it, and then a
	// forged newest record with a distinguishable value: if reload is
	// last-write-wins, this is the value a resume must serve.
	line, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var forged ckptRecord
	if err := json.Unmarshal(line, &forged); err != nil {
		t.Fatal(err)
	}
	if forged.Prog == "" {
		t.Fatal("the journaled point carries no program digest")
	}
	forged.IPC = want + 1024
	raw, err := json.Marshal(&forged)
	if err != nil {
		t.Fatal(err)
	}
	journal := string(line) + string(line) + string(raw) + "\n"
	if err := os.WriteFile(ckpt, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	second := &Workloads{Benches: w.Benches, memo: map[memoKey]*memoCell{}, jobs: 1}
	restored, err := second.OpenCheckpoint(ckpt, true)
	if err != nil {
		t.Fatal(err)
	}
	defer second.CloseCheckpoint()
	if restored != 1 {
		t.Fatalf("double resume restored %d, want 1 unique key", restored)
	}
	got, err := second.IPC(b, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want+1024 {
		t.Errorf("resume served %v; last record (%v) must win", got, want+1024)
	}
	if runs := second.SimRuns(); runs != 0 {
		t.Errorf("deduplicated resume still re-simulated %d points", runs)
	}
}
