package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// compareMain prints one row per workload × end-to-end metric of two results
// files and exits 1 if any regressed beyond its BENCHMARK.json bound.
//
// The verdict is "unresolved" when either side has fewer than minRepeats
// repeats or the base runs' quartile spread is wider than the bound (unless
// every new run beats every base run), "regressed" when the median worsened
// by more than the bound, "better" when it improved by more than the
// spread, and "unchanged" otherwise. Both sides are compared at the
// reference host speed.
func compareMain(root, basePath, newPath string, stdout io.Writer) int {
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	cur, err := readResults(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] n\tnew median [q1, q3] n\tchange\tbound\tverdict")
	regressed := false
	for _, name := range sortedKeys(base.Workloads) {
		bw, nw := base.Workloads[name], cur.Workloads[name]
		if nw == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			bs, ok1 := bw.Metrics[m.Name]
			ns, ok2 := nw.Metrics[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(m, bs, ns, bw.scaled(m), nw.scaled(m))
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%+.1f%%\t%.0f%%\t%s\n",
				name, m.Name, m.Unit, bs.Median, bs.Q1, bs.Q3, bs.N, ns.Median, ns.Q1, ns.Q3, ns.N,
				100*(ns.Median-bs.Median)/bs.Median, 100*m.Bound, v)
		}
	}
	tw.Flush()
	if regressed {
		return 1
	}
	return 0
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for name, w := range r.Workloads {
		for metric, vals := range w.Values {
			if len(vals) != len(w.HostRefMS) {
				return nil, fmt.Errorf("%s: %s: %d values of %s but %d host_ref_ms", path, name, len(vals), metric, len(w.HostRefMS))
			}
		}
	}
	return &r, nil
}

func verdict(m metricSpec, base, cur summary, baseVals, curVals []float64) string {
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	gain := sign * (cur.Median - base.Median) / base.Median
	spread := (base.Q3 - base.Q1) / base.Median
	switch {
	case base.N < minRepeats || cur.N < minRepeats:
		return "unresolved" // too few repeats to know the spread
	case spread > m.Bound:
		if allBetter(sign, baseVals, curVals) {
			return "better"
		}
		return "unresolved"
	case gain < -m.Bound:
		return "regressed"
	case gain > spread:
		return "better"
	default:
		return "unchanged"
	}
}

// allBetter reports whether every new value beats every base value.
func allBetter(sign float64, base, cur []float64) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	for _, c := range cur {
		for _, b := range base {
			if sign*(c-b) <= 0 {
				return false
			}
		}
	}
	return true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the default
// "exclusive" method.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile is the nearest-rank q-quantile.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
