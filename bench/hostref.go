package main

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"sort"
	"strings"
	"time"
)

// The host this benchmark runs on is shared: over seconds to minutes its
// speed drifts by 20–30%, inside the processor (CPU time moves with wall
// time), and every run of every workload slows with it. So the benchmark
// times a fixed reference job between repeats and reports each time at the
// speed the host had when the reference took hostRefNominalMS: a time t
// measured while the reference took r milliseconds is reported as
// t × hostRefNominalMS / r, and a rate as rate × r / hostRefNominalMS.
// The reference is standard-library code only, so no change to the program
// changes it, and a program that gets faster reads faster. README.md
// ("Noise") gives the measurements behind this.
const hostRefNominalMS = 60 // the reference on the 2-vCPU host the benchmark was sized on, in a quiet spell

// hostRefSink keeps hostRefMS's work from being optimized away.
var hostRefSink uint64

// hostRefMS times the reference job: compressing and hashing 1 MB of text,
// sorting 200,000 integers and updating a map, the mix of branchy code,
// allocation and a few megabytes of working set that tracked the
// simulator's slowdowns best of the candidates tried.
func hostRefMS() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	text := make([]byte, 1<<20)
	for i := range text {
		text[i] = "abcdefgh ijklmnop"[next()>>60]
	}
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, 5)
	if err != nil {
		panic(err) // only for an invalid level
	}
	fw.Write(text) // a bytes.Buffer does not fail
	fw.Close()
	sum := sha256.Sum256(buf.Bytes())
	ints := make([]int, 200_000)
	for i := range ints {
		ints[i] = int(next() >> 20)
	}
	sort.Ints(ints)
	m := map[int]int{}
	for i := 0; i < 100_000; i++ {
		m[ints[i]%50_000] += i
	}
	hostRefSink += uint64(sum[0]) + uint64(len(m))
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// hostScale is the factor that takes a value measured while the reference
// took refMS to the reference host speed: times (units s and ms) shrink on
// a slow host, rates (units ending in /s) grow, anything else is kept.
func hostScale(unit string, refMS float64) float64 {
	switch {
	case unit == "s" || unit == "ms":
		return hostRefNominalMS / refMS
	case strings.HasSuffix(unit, "/s"):
		return refMS / hostRefNominalMS
	default:
		return 1
	}
}
