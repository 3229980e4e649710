package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strconv"
	"strings"
	"testing"

	"braid/internal/asm"
	"braid/internal/braid"
	"braid/internal/isa"
	"braid/internal/uarch"
	"braid/internal/workload"
)

// simulate runs p on cfg with the logs attached and flushes them, as main
// does, returning the run's Stats and the logs' error.
func simulate(t *testing.T, p *isa.Program, cfg uarch.Config, logs *pipelineLogs) (*uarch.Stats, error) {
	t.Helper()
	logs.prog = p
	st, err := uarch.SimulateObserved(context.Background(), p, cfg, logs.observer())
	if err != nil {
		t.Fatal(err)
	}
	return st, logs.flush()
}

func kernel(t *testing.T, name string, braided bool) *isa.Program {
	t.Helper()
	p, ok := workload.KernelByName(name)
	if !ok {
		t.Fatalf("no kernel %s", name)
	}
	if !braided {
		return p
	}
	res, err := braid.Compile(p, braid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Prog
}

func TestTraceOutput(t *testing.T) {
	var buf bytes.Buffer
	logs := &pipelineLogs{}
	logs.startTrace(&buf, 50)
	if _, err := simulate(t, kernel(t, "dot", true), uarch.BraidConfig(8), logs); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	if !sc.Scan() || !strings.Contains(sc.Text(), "fetch") {
		t.Fatal("missing trace header")
	}
	lines := 0
	lastRetire := int64(-1)
	for sc.Scan() {
		lines++
		f := strings.Fields(sc.Text())
		if len(f) < 10 {
			t.Fatalf("short trace line: %q", sc.Text())
		}
		get := func(i int) int64 {
			v, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				t.Fatalf("bad field %d in %q", i, sc.Text())
			}
			return v
		}
		fetch, disp, issue, done, wb, retire := get(2), get(3), get(4), get(5), get(6), get(7)
		// Per-instruction stage order must be monotone.
		if !(fetch <= disp && disp < issue && issue < done && done <= wb && wb <= retire) {
			t.Errorf("non-monotone stages: %q", sc.Text())
		}
		// Retirement is in order.
		if retire < lastRetire {
			t.Errorf("retire went backwards: %q", sc.Text())
		}
		lastRetire = retire
	}
	if lines != 50 {
		t.Errorf("trace emitted %d lines, want 50", lines)
	}
}

func TestTraceUnlimited(t *testing.T) {
	var buf bytes.Buffer
	logs := &pipelineLogs{}
	logs.startTrace(&buf, 0) // unlimited
	st, err := simulate(t, kernel(t, "fig2", false), uarch.OutOfOrderConfig(8), logs)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Count(buf.String(), "\n") - 1 // minus header
	if uint64(gotLines) != st.Retired {
		t.Errorf("trace lines %d != retired %d", gotLines, st.Retired)
	}
}

func TestKonataOutput(t *testing.T) {
	src := `
	ldimm r1, #3
	add r2, r1, #1
	halt
`
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	logs := &pipelineLogs{}
	logs.startKonata(&buf, 0)
	st, err := simulate(t, p, uarch.OutOfOrderConfig(8), logs)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Kanata\t0004\n") {
		t.Error("missing Kanata header")
	}
	for _, stage := range []string{"\tF\n", "\tDs\n", "\tX\n", "\tWb\n", "\tCm\n"} {
		if !strings.Contains(out, stage) {
			t.Errorf("missing stage record %q", strings.TrimSpace(stage))
		}
	}
	if got := strings.Count(out, "\nR\t"); got != int(st.Retired) {
		t.Errorf("%d retire records for %d retired instructions", got, st.Retired)
	}
	if !strings.Contains(out, "add r2, r1, #1") {
		t.Error("missing instruction label")
	}
}

// TestLogDigests pins both logs byte for byte on the dot kernel, braided on
// the braid core and plain on the out-of-order one, at braidsim's
// -trace 100000 -konata limits.
func TestLogDigests(t *testing.T) {
	for _, c := range []struct {
		braided       bool
		cfg           uarch.Config
		trace, konata string
	}{
		{true, uarch.BraidConfig(8),
			"f7eff226ba4ebbc31ee160d7bac71674c22b0ab4a5b34745c5fa84676da9c671",
			"2f174398454c586abf331dc4a03cb329d3af508e4143b2f94642b0683196a510"},
		{false, uarch.OutOfOrderConfig(8),
			"fe84f95593e84f11d9f93e5ddd836c5dc1566582308b260f5ae85a23d5cad122",
			"cd079ed1ebf83a741db50f1cef6a566a09263eb14b97f3cc368f3a656dab594d"},
	} {
		var tb, kb bytes.Buffer
		logs := &pipelineLogs{}
		logs.startTrace(&tb, 100000)
		logs.startKonata(&kb, 100000)
		if _, err := simulate(t, kernel(t, "dot", c.braided), c.cfg, logs); err != nil {
			t.Fatal(err)
		}
		for _, l := range []struct {
			name string
			out  []byte
			want string
		}{{"trace", tb.Bytes(), c.trace}, {"konata", kb.Bytes(), c.konata}} {
			sum := sha256.Sum256(l.out)
			if got := hex.EncodeToString(sum[:]); got != l.want {
				t.Errorf("%s %s: digest %s, want %s", c.cfg.Core, l.name, got, l.want)
			}
		}
	}
}

// failingWriter accepts the first n writes and then fails every write with
// err, modeling a pipe that closes or a disk that fills mid-run.
type failingWriter struct {
	n      int
	err    error
	writes int // successful
	failed int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.writes >= f.n {
		f.failed++
		return 0, f.err
	}
	f.writes++
	return len(p), nil
}

var errSinkBroken = errors.New("sink broken")

// TestTraceWriterErrorSurfaces: a failing trace sink must not be dropped on
// the floor — the first write error is reported even though the simulation
// itself completed, and output stops at the failure. The dot kernel's trace
// fills the log's buffer about a dozen times.
func TestTraceWriterErrorSurfaces(t *testing.T) {
	for _, allowed := range []int{0, 1, 5} {
		fw := &failingWriter{n: allowed, err: errSinkBroken}
		logs := &pipelineLogs{}
		logs.startTrace(fw, 0)
		_, err := simulate(t, kernel(t, "dot", false), uarch.OutOfOrderConfig(8), logs)
		if err == nil {
			t.Fatalf("allowed=%d: write failure did not surface", allowed)
		}
		if !errors.Is(err, errSinkBroken) {
			t.Fatalf("allowed=%d: error %v does not wrap the writer's error", allowed, err)
		}
		if !strings.HasPrefix(err.Error(), "trace: ") {
			t.Errorf("allowed=%d: error %q does not name the trace sink", allowed, err)
		}
		if fw.writes != allowed || fw.failed != 1 {
			t.Errorf("allowed=%d: writer saw %d successful and %d failed writes; output must stop at the first failure",
				allowed, fw.writes, fw.failed)
		}
	}
}

// TestKonataWriterErrorSurfaces is the Kanata-log variant, with a healthy
// trace alongside: the error names the sink that failed.
func TestKonataWriterErrorSurfaces(t *testing.T) {
	var tb bytes.Buffer
	logs := &pipelineLogs{}
	logs.startTrace(&tb, 10)
	logs.startKonata(&failingWriter{n: 3, err: errSinkBroken}, 0)
	_, err := simulate(t, kernel(t, "fig2", false), uarch.OutOfOrderConfig(8), logs)
	if err == nil {
		t.Fatal("konata write failure did not surface")
	}
	if !errors.Is(err, errSinkBroken) {
		t.Fatalf("error %v does not wrap the writer's error", err)
	}
	if !strings.HasPrefix(err.Error(), "konata: ") {
		t.Errorf("error %q does not name the konata sink", err)
	}
	if got := strings.Count(tb.String(), "\n"); got != 11 {
		t.Errorf("the healthy trace holds %d lines, want the header and 10", got)
	}
}

// TestHealthyWritersStillSucceed pins the non-failing path: attaching both
// logs to working sinks must not turn a good run into an error.
func TestHealthyWritersStillSucceed(t *testing.T) {
	var tb, kb strings.Builder
	logs := &pipelineLogs{}
	logs.startTrace(&tb, 10)
	logs.startKonata(&kb, 10)
	if _, err := simulate(t, kernel(t, "dot", false), uarch.OutOfOrderConfig(8), logs); err != nil {
		t.Fatalf("healthy writers broke the run: %v", err)
	}
	if tb.Len() == 0 || kb.Len() == 0 {
		t.Error("no log output written")
	}
}
