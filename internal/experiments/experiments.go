package experiments

import (
	"fmt"

	"braid/internal/uarch"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(w *Workloads) (*Result, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"values", "§1 value fanout and lifetime characterization", ValueCharacterization},
		{"fig1", "Figure 1: potential of 8/16-wide OoO with perfect front end", Fig1},
		{"table1", "Table 1: braids per basic block", Table1},
		{"table2", "Table 2: braid size and width", Table2},
		{"table3", "Table 3: braid internals, external inputs and outputs", Table3},
		{"fig5", "Figure 5: OoO performance vs register-file entries", Fig5},
		{"fig6", "Figure 6: braid performance vs external register-file entries", Fig6},
		{"fig7", "Figure 7: braid performance vs external register-file ports", Fig7},
		{"fig8", "Figure 8: braid performance vs bypass paths", Fig8},
		{"fig9", "Figure 9: braid performance vs number of BEUs", Fig9},
		{"fig10", "Figure 10: braid performance vs BEU FIFO entries", Fig10},
		{"fig11", "Figure 11: braid performance vs scheduling-window size", Fig11},
		{"fig12", "Figure 12: braid performance vs window size and FUs", Fig12},
		{"fig13", "Figure 13: in-order, dep-steering, braid, OoO at 4/8/16-wide", Fig13},
		{"fig14", "Figure 14: equal functional-unit budget (BEU count vs FU count)", Fig14},
		{"pipeline", "§5.1: gain from the 4-stage-shorter braid pipeline", Pipeline},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ValueCharacterization reproduces the §1 motivation numbers: over 70% of
// values are read once, about 90% at most twice, about 4% never; about 80%
// of lifetimes are within 32 instructions.
func ValueCharacterization(w *Workloads) (*Result, error) {
	chars, err := w.characterizeAll()
	if err != nil {
		return nil, err
	}
	r := newResult("values", "§1 value fanout and lifetime")
	for i, b := range w.Benches {
		vs := chars[i].Values
		r.Set(b.Name, b.FP, "used-once", vs.FracUsedOnce())
		r.Set(b.Name, b.FP, "used<=2", vs.FanoutCDF(2))
		r.Set(b.Name, b.FP, "unused", vs.FracUnused())
		r.Set(b.Name, b.FP, "life<=32", vs.LifetimeCDF(32))
	}
	r.AddClaim("values used exactly once (avg)", 0.70, r.Average("used-once", "all"))
	r.AddClaim("values used at most twice (avg)", 0.90, r.Average("used<=2", "all"))
	r.AddClaim("values produced but never used (avg)", 0.04, r.Average("unused", "all"))
	r.AddClaim("lifetimes within 32 instructions (avg)", 0.80, r.Average("life<=32", "all"))
	return r, nil
}

// Fig1 measures the headroom of wider issue with a perfect branch predictor
// and perfect caches, normalized per benchmark to the 4-wide machine.
func Fig1(w *Workloads) (*Result, error) {
	r := newResult("fig1", "speedup over 4-wide OoO, perfect BP and caches")
	mk := func(width int) uarch.Config {
		cfg := uarch.OutOfOrderConfig(width)
		cfg.PerfectBP = true
		cfg.Mem.Perfect = true
		return cfg
	}
	widths := []int{4, 8, 16}
	var pts []Point
	for _, b := range w.Benches {
		for _, width := range widths {
			pts = append(pts, Point{b, false, mk(width)})
		}
	}
	ipc, err := w.IPCAll(pts)
	if err != nil {
		return nil, err
	}
	for _, b := range w.Benches {
		base, ok := ipc[Point{b, false, mk(4)}]
		if !ok {
			continue // contained failure: skip the row, keep the figure
		}
		for _, width := range []int{8, 16} {
			if v, ok := ipc[Point{b, false, mk(width)}]; ok {
				r.Set(b.Name, b.FP, fmt.Sprintf("%d-wide", width), v/base)
			}
		}
	}
	r.AddClaim("8-wide speedup over 4-wide (avg)", 1.44, r.Average("8-wide", "all"))
	r.AddClaim("16-wide speedup over 4-wide (avg)", 1.83, r.Average("16-wide", "all"))
	return r, nil
}

// Table1 compares measured braids per basic block against the paper.
func Table1(w *Workloads) (*Result, error) {
	chars, err := w.characterizeAll()
	if err != nil {
		return nil, err
	}
	r := newResult("table1", "braids per basic block (execution weighted)")
	for i, b := range w.Benches {
		s := chars[i].Braids
		r.Set(b.Name, b.FP, "measured", s.BraidsPerBlock())
		r.Set(b.Name, b.FP, "paper", b.Profile.BraidsPerBlock)
		r.Set(b.Name, b.FP, "excl-singles", s.BraidsPerBlockExcl())
	}
	r.AddClaim("int braids/block", 2.8, r.Average("measured", "int"))
	r.AddClaim("fp braids/block", 3.8, r.Average("measured", "fp"))
	r.AddClaim("int braids/block excl singles", 1.1, r.Average("excl-singles", "int"))
	r.AddClaim("fp braids/block excl singles", 1.5, r.Average("excl-singles", "fp"))
	return r, nil
}

// Table2 compares braid size and width.
func Table2(w *Workloads) (*Result, error) {
	chars, err := w.characterizeAll()
	if err != nil {
		return nil, err
	}
	r := newResult("table2", "braid size and width (execution weighted)")
	for i, b := range w.Benches {
		s := chars[i].Braids
		r.Set(b.Name, b.FP, "size", s.MeanSize())
		r.Set(b.Name, b.FP, "size-paper", b.Profile.MeanSize)
		r.Set(b.Name, b.FP, "width", s.MeanWidth())
		r.Set(b.Name, b.FP, "width-paper", b.Profile.MeanWidth)
		r.Set(b.Name, b.FP, "size*", s.MeanSizeExcl())
	}
	r.AddClaim("int braid size", 2.5, r.Average("size", "int"))
	r.AddClaim("fp braid size", 3.6, r.Average("size", "fp"))
	r.AddClaim("int braid size excl singles", 4.7, r.Average("size*", "int"))
	r.AddClaim("fp braid size excl singles", 7.6, r.Average("size*", "fp"))
	r.AddClaim("int braid width", 1.1, r.Average("width", "int"))
	r.AddClaim("fp braid width", 1.1, r.Average("width", "fp"))
	return r, nil
}

// Table3 compares internal values and external inputs/outputs per braid.
func Table3(w *Workloads) (*Result, error) {
	chars, err := w.characterizeAll()
	if err != nil {
		return nil, err
	}
	r := newResult("table3", "braid internals and external I/O (execution weighted)")
	for i, b := range w.Benches {
		s := chars[i].Braids
		r.Set(b.Name, b.FP, "internals", s.MeanInternals())
		r.Set(b.Name, b.FP, "int-paper", paperInternals(b))
		r.Set(b.Name, b.FP, "ext-in", s.MeanExtInputs())
		r.Set(b.Name, b.FP, "in-paper", b.Profile.ExtInputs)
		r.Set(b.Name, b.FP, "ext-out", s.MeanExtOutputs())
		r.Set(b.Name, b.FP, "out-paper", b.Profile.ExtOutputs)
	}
	r.AddClaim("int internal values per braid", 1.7, r.Average("internals", "int"))
	r.AddClaim("fp internal values per braid", 3.0, r.Average("internals", "fp"))
	r.AddClaim("int external inputs per braid", 1.7, r.Average("ext-in", "int"))
	r.AddClaim("fp external inputs per braid", 2.2, r.Average("ext-in", "fp"))
	r.AddClaim("int external outputs per braid", 0.7, r.Average("ext-out", "int"))
	r.AddClaim("fp external outputs per braid", 0.8, r.Average("ext-out", "fp"))
	return r, nil
}

// paperInternals returns Table 3's per-benchmark internal-value count.
func paperInternals(b *Bench) float64 {
	v, ok := paperInternalsTable[b.Name]
	if !ok {
		return 0
	}
	return v
}

var paperInternalsTable = map[string]float64{
	"bzip2": 2.7, "crafty": 2.4, "eon": 1.1, "gap": 1.6, "gcc": 1.4,
	"gzip": 2.6, "mcf": 1.0, "parser": 1.2, "perlbmk": 1.4, "twolf": 2.0,
	"vortex": 1.1, "vpr": 1.6,
	"ammp": 2.0, "applu": 2.0, "apsi": 2.1, "art": 1.6, "equake": 1.5,
	"facerec": 1.3, "fma3d": 2.1, "galgel": 1.1, "lucas": 4.1, "mesa": 1.2,
	"mgrid": 14.5, "sixtrack": 1.3, "swim": 4.5, "wupwise": 2.2,
}

// sweep runs a family of configurations over the suite — every (benchmark,
// configuration) point simulated concurrently through the worker pool — and
// normalizes each benchmark to its baseline configuration.
func sweep(w *Workloads, r *Result, braided bool, baseline uarch.Config, series []string, mk func(s string) uarch.Config) error {
	pts := make([]Point, 0, len(w.Benches)*(len(series)+1))
	for _, b := range w.Benches {
		pts = append(pts, Point{b, braided, baseline})
		for _, s := range series {
			pts = append(pts, Point{b, braided, mk(s)})
		}
	}
	ipc, err := w.IPCAll(pts)
	if err != nil {
		return err
	}
	for _, b := range w.Benches {
		base, ok := ipc[Point{b, braided, baseline}]
		if !ok {
			continue // contained failure: skip the row, keep the sweep
		}
		for _, s := range series {
			if v, ok := ipc[Point{b, braided, mk(s)}]; ok {
				r.Set(b.Name, b.FP, s, v/base)
			}
		}
	}
	r.sortSeries(series)
	return nil
}

// Fig5 sweeps the conventional machine's register-file entries.
func Fig5(w *Workloads) (*Result, error) {
	r := newResult("fig5", "OoO IPC vs RF entries, normalized to 256")
	sizes := []int{256, 128, 64, 32, 16, 8}
	series := make([]string, len(sizes))
	for i, n := range sizes {
		series[i] = fmt.Sprintf("%d", n)
	}
	mk := func(s string) uarch.Config {
		cfg := uarch.OutOfOrderConfig(8)
		fmt.Sscanf(s, "%d", &cfg.RFEntries)
		return cfg
	}
	if err := sweep(w, r, false, uarch.OutOfOrderConfig(8), series, mk); err != nil {
		return nil, err
	}
	r.AddClaim("32 registers (paper: -8%)", 0.92, r.Average("32", "all"))
	r.AddClaim("16 registers (paper: -21%)", 0.79, r.Average("16", "all"))
	return r, nil
}

// Fig6 sweeps the braid machine's external register-file entries.
func Fig6(w *Workloads) (*Result, error) {
	r := newResult("fig6", "braid IPC vs external RF entries, normalized to 256")
	base := uarch.BraidConfig(8)
	base.RFEntries = 256
	sizes := []int{64, 32, 16, 8, 4}
	series := make([]string, len(sizes))
	for i, n := range sizes {
		series[i] = fmt.Sprintf("%d", n)
	}
	mk := func(s string) uarch.Config {
		cfg := uarch.BraidConfig(8)
		fmt.Sscanf(s, "%d", &cfg.RFEntries)
		return cfg
	}
	if err := sweep(w, r, true, base, series, mk); err != nil {
		return nil, err
	}
	r.AddClaim("8-entry external RF ≈ 256-entry", 1.0, r.Average("8", "all"))
	return r, nil
}

// Fig7 sweeps the braid external register file's read/write ports.
func Fig7(w *Workloads) (*Result, error) {
	r := newResult("fig7", "braid IPC vs external RF ports, normalized to 16R/8W")
	base := uarch.BraidConfig(8)
	base.RFReadPorts, base.RFWritePorts = 16, 8
	type pc struct{ r, w int }
	ports := []pc{{8, 4}, {6, 3}, {4, 2}}
	series := []string{"8,4", "6,3", "4,2"}
	mk := func(s string) uarch.Config {
		cfg := uarch.BraidConfig(8)
		for i, name := range series {
			if name == s {
				cfg.RFReadPorts, cfg.RFWritePorts = ports[i].r, ports[i].w
			}
		}
		return cfg
	}
	if err := sweep(w, r, true, base, series, mk); err != nil {
		return nil, err
	}
	r.AddClaim("6R/3W within 0.5% of 16R/8W", 0.995, r.Average("6,3", "all"))
	return r, nil
}

// Fig8 sweeps the braid bypass network's per-cycle value capacity.
func Fig8(w *Workloads) (*Result, error) {
	r := newResult("fig8", "braid IPC vs bypass values/cycle, normalized to full (8)")
	base := uarch.BraidConfig(8)
	base.BypassValues = 8
	base.BypassLevels = 3
	series := []string{"4", "2", "1"}
	mk := func(s string) uarch.Config {
		cfg := uarch.BraidConfig(8)
		cfg.BypassLevels = 1
		fmt.Sscanf(s, "%d", &cfg.BypassValues)
		return cfg
	}
	if err := sweep(w, r, true, base, series, mk); err != nil {
		return nil, err
	}
	r.AddClaim("2 bypass values within 1% of full", 0.99, r.Average("2", "all"))
	return r, nil
}

// ooo8 is the normalization baseline of Figures 9-13.
func ooo8() uarch.Config { return uarch.OutOfOrderConfig(8) }

// braidSweep normalizes braid-core variants to the 8-wide conventional OoO
// machine, the way Figures 9-12 are plotted.
func braidSweep(w *Workloads, r *Result, series []string, mk func(s string) uarch.Config) error {
	pts := make([]Point, 0, len(w.Benches)*(len(series)+1))
	for _, b := range w.Benches {
		pts = append(pts, Point{b, false, ooo8()})
		for _, s := range series {
			pts = append(pts, Point{b, true, mk(s)})
		}
	}
	ipc, err := w.IPCAll(pts)
	if err != nil {
		return err
	}
	for _, b := range w.Benches {
		base, ok := ipc[Point{b, false, ooo8()}]
		if !ok {
			continue // contained failure: skip the row, keep the sweep
		}
		for _, s := range series {
			if v, ok := ipc[Point{b, true, mk(s)}]; ok {
				r.Set(b.Name, b.FP, s, v/base)
			}
		}
	}
	r.sortSeries(series)
	return nil
}

// Fig9 varies the number of BEUs.
func Fig9(w *Workloads) (*Result, error) {
	r := newResult("fig9", "braid IPC vs BEUs, normalized to 8-wide OoO")
	series := []string{"1", "2", "4", "8", "16"}
	mk := func(s string) uarch.Config {
		cfg := uarch.BraidConfig(8)
		fmt.Sscanf(s, "%d", &cfg.BEUs)
		cfg.TotalFUs = cfg.BEUs * cfg.BEUFUs
		return cfg
	}
	if err := braidSweep(w, r, series, mk); err != nil {
		return nil, err
	}
	v8 := r.Average("8", "all")
	v4 := r.Average("4", "all")
	r.AddClaim("more BEUs keep helping (8 vs 4 BEUs ratio > 1)", 1.1, v8/v4)
	return r, nil
}

// Fig10 varies the BEU FIFO depth.
func Fig10(w *Workloads) (*Result, error) {
	r := newResult("fig10", "braid IPC vs BEU FIFO entries, normalized to 8-wide OoO")
	series := []string{"4", "8", "16", "32", "64"}
	mk := func(s string) uarch.Config {
		cfg := uarch.BraidConfig(8)
		fmt.Sscanf(s, "%d", &cfg.BEUFIFO)
		return cfg
	}
	if err := braidSweep(w, r, series, mk); err != nil {
		return nil, err
	}
	r.AddClaim("32 entries capture nearly all of 64", 1.0, r.Average("32", "all")/r.Average("64", "all"))
	return r, nil
}

// Fig11 varies the in-order scheduling window at the FIFO head.
func Fig11(w *Workloads) (*Result, error) {
	r := newResult("fig11", "braid IPC vs scheduling window, normalized to 8-wide OoO")
	series := []string{"1", "2", "4", "8"}
	mk := func(s string) uarch.Config {
		cfg := uarch.BraidConfig(8)
		fmt.Sscanf(s, "%d", &cfg.BEUWindow)
		return cfg
	}
	if err := braidSweep(w, r, series, mk); err != nil {
		return nil, err
	}
	r.AddClaim("window 2 ≈ window 8 (plateau)", 1.0, r.Average("2", "all")/r.Average("8", "all"))
	return r, nil
}

// Fig12 varies the window size and FU count together.
func Fig12(w *Workloads) (*Result, error) {
	r := newResult("fig12", "braid IPC vs window=FUs, normalized to 8-wide OoO")
	series := []string{"1", "2", "4", "8"}
	mk := func(s string) uarch.Config {
		cfg := uarch.BraidConfig(8)
		n := 0
		fmt.Sscanf(s, "%d", &n)
		cfg.BEUWindow, cfg.BEUFUs = n, n
		cfg.TotalFUs = cfg.BEUs * n
		return cfg
	}
	if err := braidSweep(w, r, series, mk); err != nil {
		return nil, err
	}
	r.AddClaim("window=FUs 2 ≈ 8 (braid ILP ≈ 2)", 1.0, r.Average("2", "all")/r.Average("8", "all"))
	return r, nil
}

// Fig13 compares the four paradigms at 4-, 8- and 16-wide.
func Fig13(w *Workloads) (*Result, error) {
	r := newResult("fig13", "paradigms × width, normalized to 8-wide OoO")
	type entry struct {
		series  string
		braided bool
		mk      func(int) uarch.Config
	}
	entries := []entry{
		{"i-o", false, uarch.InOrderConfig},
		{"dep", false, uarch.DepSteerConfig},
		{"braid", true, uarch.BraidConfig},
		{"o-o-o", false, uarch.OutOfOrderConfig},
	}
	var series []string
	for _, width := range []int{4, 8, 16} {
		for _, e := range entries {
			series = append(series, fmt.Sprintf("%s/%dw", e.series, width))
		}
	}
	pts := make([]Point, 0, len(w.Benches)*(len(series)+1))
	for _, b := range w.Benches {
		pts = append(pts, Point{b, false, ooo8()})
		for _, width := range []int{4, 8, 16} {
			for _, e := range entries {
				pts = append(pts, Point{b, e.braided, e.mk(width)})
			}
		}
	}
	ipc, err := w.IPCAll(pts)
	if err != nil {
		return nil, err
	}
	for _, b := range w.Benches {
		base, ok := ipc[Point{b, false, ooo8()}]
		if !ok {
			continue // contained failure: skip the row, keep the figure
		}
		for _, width := range []int{4, 8, 16} {
			for _, e := range entries {
				if v, ok := ipc[Point{b, e.braided, e.mk(width)}]; ok {
					r.Set(b.Name, b.FP, fmt.Sprintf("%s/%dw", e.series, width), v/base)
				}
			}
		}
	}
	r.sortSeries(series)
	br8, oo8 := r.Average("braid/8w", "all"), r.Average("o-o-o/8w", "all")
	br16, oo16 := r.Average("braid/16w", "all"), r.Average("o-o-o/16w", "all")
	r.AddClaim("braid within 9% of 8-wide OoO (ratio)", 0.91, br8/oo8)
	r.AddClaim("braid/OoO gap closes at 16-wide (ratio)", 0.95, br16/oo16)
	r.AddClaim("performance still available at 16-wide (OoO 16w/8w)", 1.25, oo16/oo8)
	return r, nil
}

// Fig14 holds the functional-unit budget at 8 and trades BEU count against
// per-BEU FUs, normalized to the default 8 BEUs × 2 FUs machine.
func Fig14(w *Workloads) (*Result, error) {
	r := newResult("fig14", "equal FU budget: 4 BEU×2FU vs 8 BEU×1FU, normalized to 8×2")
	base := uarch.BraidConfig(8)
	series := []string{"4x2", "8x1"}
	mk := func(s string) uarch.Config {
		cfg := uarch.BraidConfig(8)
		if s == "4x2" {
			cfg.BEUs, cfg.BEUFUs = 4, 2
		} else {
			cfg.BEUs, cfg.BEUFUs = 8, 1
		}
		cfg.TotalFUs = 8
		return cfg
	}
	if err := sweep(w, r, true, base, series, mk); err != nil {
		return nil, err
	}
	r.AddClaim("more BEUs beat wider BEUs (8x1 vs 4x2)", 1.05, r.Average("8x1", "all")/r.Average("4x2", "all"))
	return r, nil
}

// Pipeline isolates the 4-stage-shorter braid pipeline (§5.1: 2.19% average).
func Pipeline(w *Workloads) (*Result, error) {
	r := newResult("pipeline", "gain from the shorter braid pipeline (19 vs 23 cycle penalty)")
	long := uarch.BraidConfig(8)
	long.FrontDepth = 12
	long.MispredictMin = 23
	short := uarch.BraidConfig(8)
	pts := make([]Point, 0, 2*len(w.Benches))
	for _, b := range w.Benches {
		pts = append(pts, Point{b, true, long}, Point{b, true, short})
	}
	ipc, err := w.IPCAll(pts)
	if err != nil {
		return nil, err
	}
	for _, b := range w.Benches {
		lv, lok := ipc[Point{b, true, long}]
		sv, sok := ipc[Point{b, true, short}]
		if lok && sok {
			r.Set(b.Name, b.FP, "short/long", sv/lv)
		}
	}
	r.AddClaim("average speedup from shorter pipeline", 1.0219, r.Average("short/long", "all"))
	return r, nil
}
