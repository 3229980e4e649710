package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"braid/internal/isa"
	"braid/internal/uarch"
)

// PointFailure records one contained simulation failure: the sweep went on
// without this point. Artifact names the crash-repro files when the failure
// was a simulator fault and a crash directory is configured.
type PointFailure struct {
	Bench    string
	Braided  bool
	Core     uarch.CoreKind
	Err      error
	Artifact string // path of the .json repro artifact ("" if none written)
}

func (f PointFailure) String() string {
	s := fmt.Sprintf("%s (%s braided=%v): %v", f.Bench, f.Core, f.Braided, f.Err)
	if f.Artifact != "" {
		s += fmt.Sprintf(" [repro: %s]", f.Artifact)
	}
	return s
}

// Failures returns the contained failures recorded so far, in the order they
// happened. Safe for concurrent use with running sweeps.
func (w *Workloads) Failures() []PointFailure {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return append([]PointFailure(nil), w.failed...)
}

// Contained reports whether a simulation error is a per-point failure the
// suite survives — a recovered simulator panic, an exhausted cycle budget,
// or an expired per-simulation deadline. Cancellation is NOT contained: it
// means the whole suite is being torn down.
func Contained(err error) bool {
	var sf *uarch.SimFault
	if errors.As(err, &sf) {
		return true
	}
	return errors.Is(err, uarch.ErrCycleLimit) || errors.Is(err, uarch.ErrTimeout)
}

// Transient reports whether a simulation error may succeed on retry — a
// timeout or a cancellation, not a deterministic fault or cycle-budget
// exhaustion. Errors that declare themselves transient (a remote pool's
// backends-unavailable failure) count too. Transient results are never
// memoized, so a recovered environment can rerun the point.
func Transient(err error) bool {
	var tr interface{ TransientError() bool }
	if errors.As(err, &tr) && tr.TransientError() {
		return true
	}
	return errors.Is(err, uarch.ErrTimeout) || errors.Is(err, uarch.ErrCanceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// noteFailure records a contained failure and, for simulator faults, writes
// the crash artifact that makes the failure one command to replay.
func (w *Workloads) noteFailure(b *Bench, braided bool, cfg uarch.Config, err error) {
	if !Contained(err) {
		return
	}
	pf := PointFailure{Bench: b.Name, Braided: braided, Core: cfg.Core, Err: err}
	var sf *uarch.SimFault
	if errors.As(err, &sf) && w.crashDir != "" {
		if path, aerr := WriteCrashArtifact(w.crashDir, b.Name, braided, b.program(braided), cfg, sf); aerr == nil {
			pf.Artifact = path
		} else {
			pf.Err = fmt.Errorf("%w (crash artifact not written: %v)", err, aerr)
		}
	}
	w.failMu.Lock()
	w.failed = append(w.failed, pf)
	w.failMu.Unlock()
}

// CrashArtifact is the JSON half of a crash repro: everything needed to
// rebuild the failing simulation. The program itself is saved alongside as a
// .brd binary image; `braidsim -config <artifact.json>` replays the pair.
type CrashArtifact struct {
	Bench   string       `json:"bench"`
	Braided bool         `json:"braided"`
	Cycle   uint64       `json:"cycle"`
	Panic   string       `json:"panic"`
	Stack   string       `json:"stack,omitempty"`
	Program string       `json:"program"` // path of the .brd image
	Replay  string       `json:"replay"`  // suggested replay command
	Config  uarch.Config `json:"config"`
}

// WriteCrashArtifact persists a minimal repro for a simulator fault: the
// exact program image (<stem>.brd) and a JSON description with the full
// machine configuration (<stem>.json). It returns the JSON path. The stem is
// deterministic per (bench, core, braided), so a repeatedly faulting point
// overwrites rather than accumulates.
func WriteCrashArtifact(dir, bench string, braided bool, p *isa.Program, cfg uarch.Config, sf *uarch.SimFault) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	stem := fmt.Sprintf("%s-%s-braided=%v", bench, cfg.Core, braided)
	progPath := filepath.Join(dir, stem+".brd")
	jsonPath := filepath.Join(dir, stem+".json")

	pf, err := os.Create(progPath)
	if err != nil {
		return "", err
	}
	if err := isa.WriteImage(pf, p); err != nil {
		pf.Close()
		return "", err
	}
	if err := pf.Close(); err != nil {
		return "", err
	}

	// Paranoid mode is what detects the corruption; force it on in the
	// artifact so the replay panics at the same cycle the original did.
	cfg.Paranoid = true
	art := CrashArtifact{
		Bench:   bench,
		Braided: braided,
		Cycle:   sf.Cycle,
		Panic:   fmt.Sprint(sf.Panic),
		Stack:   string(sf.Stack),
		Program: progPath,
		Replay:  fmt.Sprintf("braidsim -config %s", jsonPath),
		Config:  cfg,
	}
	data, err := json.MarshalIndent(&art, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return jsonPath, nil
}

// ReadCrashArtifact loads a crash artifact and its program image for replay.
func ReadCrashArtifact(jsonPath string) (*CrashArtifact, *isa.Program, error) {
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		return nil, nil, err
	}
	var art CrashArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, nil, fmt.Errorf("experiments: parsing crash artifact %s: %w", jsonPath, err)
	}
	prog := art.Program
	if prog != "" && !filepath.IsAbs(prog) {
		// Tolerate artifacts moved along with their directory.
		if _, err := os.Stat(prog); err != nil {
			prog = filepath.Join(filepath.Dir(jsonPath), filepath.Base(prog))
		}
	}
	f, err := os.Open(prog)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	p, err := isa.ReadImage(f)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: reading program image %s: %w", prog, err)
	}
	return &art, p, nil
}
