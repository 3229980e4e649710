package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"braid/internal/experiments"
)

// maxSampledErrPct bounds suite-sampled's mean fig13 error against exact
// simulation; measured values at the five committed sizes are 2.6–3.4%.
const maxSampledErrPct = 5.0

// suiteRef pins one exact suite run: the digest of braidbench's tables and
// its -throughput counts.
type suiteRef struct {
	SHA256       string `json:"sha256"`
	Simulations  uint64 `json:"simulations"`
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
}

// references are the exact results outputs are checked against: committed
// under bench/testdata for every size a seed can pick, and computed
// in-process, untimed, for any other size.
type references struct {
	dir   string
	suite map[uint64]suiteRef // every experiment, as suite-exact runs them
	fleet map[uint64]suiteRef // fig13 alone, as fleet-sweep runs it
	fig13 map[uint64][]byte   // braidbench -exp fig13 -csv output
}

func loadReferences(root string) (*references, error) {
	r := &references{dir: filepath.Join(root, "bench", "testdata"), fig13: map[uint64][]byte{}}
	var err error
	if r.suite, err = readSuiteRefs(filepath.Join(r.dir, "suite.json")); err != nil {
		return nil, err
	}
	if r.fleet, err = readSuiteRefs(filepath.Join(r.dir, "fleet.json")); err != nil {
		return nil, err
	}
	return r, nil
}

// readSuiteRefs reads a file of suiteRefs keyed by -dyn; a missing file
// holds none.
func readSuiteRefs(path string) (map[uint64]suiteRef, error) {
	refs := map[uint64]suiteRef{}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return refs, nil
	}
	if err != nil {
		return nil, err
	}
	var byDyn map[string]suiteRef
	if err := json.Unmarshal(data, &byDyn); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for k, ref := range byDyn {
		dyn, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: key %q: %w", path, k, err)
		}
		refs[dyn] = ref
	}
	return refs, nil
}

// fleetExps are the experiments fleet-sweep runs.
func fleetExps() []experiments.Experiment {
	fig13, _ := experiments.ByID("fig13")
	return []experiments.Experiment{fig13}
}

func (r *references) fig13Ref(ctx context.Context, dyn uint64) ([]byte, error) {
	if ref, ok := r.fig13[dyn]; ok {
		return ref, nil
	}
	ref, err := os.ReadFile(filepath.Join(r.dir, fig13File(dyn)))
	if errors.Is(err, os.ErrNotExist) {
		ref, err = computeFig13Ref(ctx, dyn)
	}
	if err == nil {
		r.fig13[dyn] = ref
	}
	return ref, err
}

func fig13File(dyn uint64) string { return fmt.Sprintf("fig13-%d.csv", dyn) }

// checkSuite compares suite-exact's tables and counts with the reference.
func (r *references) checkSuite(ctx context.Context, dyn uint64, tables []byte, tp throughput) error {
	return checkExact(ctx, r.suite, experiments.All(), "exact suite", dyn, tables, tp)
}

// checkFleet compares fleet-sweep's tables and counts with the reference.
func (r *references) checkFleet(ctx context.Context, dyn uint64, tables []byte, tp throughput) error {
	return checkExact(ctx, r.fleet, fleetExps(), "exact fig13", dyn, tables, tp)
}

// checkExact compares an exact run of exps with refs[dyn], computing and
// keeping the reference if there is none.
func checkExact(ctx context.Context, refs map[uint64]suiteRef, exps []experiments.Experiment, what string,
	dyn uint64, tables []byte, tp throughput) error {
	want, ok := refs[dyn]
	if !ok {
		var err error
		if want, err = computeExactRef(ctx, dyn, exps); err != nil {
			return err
		}
		refs[dyn] = want
	}
	got := suiteRef{hexSum(tables), tp.Simulations, tp.Instructions, tp.Cycles}
	if got != want {
		return fmt.Errorf("%s at -dyn %d: got %+v, want %+v", what, dyn, got, want)
	}
	return nil
}

// checkSampled returns a sampled fig13's mean error against exact
// simulation, failing beyond maxSampledErrPct.
func (r *references) checkSampled(ctx context.Context, dyn uint64, out []byte) (float64, error) {
	ref, err := r.fig13Ref(ctx, dyn)
	if err != nil {
		return 0, err
	}
	pct, err := sampledErrPct(out, ref)
	if err == nil && pct > maxSampledErrPct {
		err = fmt.Errorf("sampled fig13 at -dyn %d: mean error %.2f%% exceeds %.0f%%", dyn, pct, maxSampledErrPct)
	}
	return pct, err
}

func computeExactRef(ctx context.Context, dyn uint64, exps []experiments.Experiment) (suiteRef, error) {
	w, err := experiments.LoadSuiteCtx(ctx, dyn, jobs)
	if err != nil {
		return suiteRef{}, err
	}
	out, err := sweep(nil, 0, w, exps, nil, false)
	if err != nil {
		return suiteRef{}, err
	}
	return suiteRef{hexSum(out), w.SimRuns(), w.SimInstrs(), w.SimCycles()}, nil
}

func computeFig13Ref(ctx context.Context, dyn uint64) ([]byte, error) {
	w, err := experiments.LoadSuiteCtx(ctx, dyn, jobs)
	if err != nil {
		return nil, err
	}
	fig13, _ := experiments.ByID("fig13")
	return sweep(nil, 0, w, []experiments.Experiment{fig13}, nil, true)
}

// sampledErrPct is the mean |sampled − exact| / exact, in percent, over the
// benchmark cells of two fig13 CSV outputs. The o-o-o/8w column is the
// normalization baseline (1 in both) and the avg rows repeat the cells, so
// neither counts.
func sampledErrPct(sampled, exact []byte) (float64, error) {
	s, err := parseFig13(sampled)
	if err != nil {
		return 0, err
	}
	e, err := parseFig13(exact)
	if err != nil {
		return 0, err
	}
	var sum float64
	n := 0
	for bench, row := range e {
		for col, ev := range row {
			if col == "o-o-o/8w" {
				continue
			}
			sv, ok := s[bench][col]
			if !ok {
				return 0, fmt.Errorf("sampled fig13 lacks %s %s", bench, col)
			}
			sum += math.Abs(sv-ev) / ev
			n++
		}
	}
	if n == 0 {
		return 0, errors.New("fig13 reference has no cells")
	}
	return 100 * sum / float64(n), nil
}

// parseFig13 reads the benchmark rows of braidbench's fig13 CSV.
func parseFig13(out []byte) (map[string]map[string]float64, error) {
	rows := map[string]map[string]float64{}
	var header []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "benchmark,"):
			header = strings.Split(line, ",")
		case header == nil || strings.HasPrefix(line, "avg-"):
		case line == "":
			header = nil
		default:
			f := strings.Split(line, ",")
			if len(f) != len(header) {
				return nil, fmt.Errorf("fig13 row %q: %d fields, want %d", line, len(f), len(header))
			}
			row := map[string]float64{}
			for i, v := range f[1:] {
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("fig13 row %q: %w", line, err)
				}
				row[header[i+1]] = x
			}
			rows[f[0]] = row
		}
	}
	if len(rows) == 0 {
		return nil, errors.New("no fig13 rows in output")
	}
	return rows, nil
}

func sha256Sum(b []byte) [32]byte { return sha256.Sum256(b) }

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
