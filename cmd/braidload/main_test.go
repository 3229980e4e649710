package main

import (
	"maps"
	"net/http/httptest"
	"testing"

	"braid/internal/service"
)

// TestVerifiedLoadAgainstService drives the load loop against an in-process
// braidd one request at a time, twice over the 12-request mix. The first
// pass simulates each request once and answers its repeat from the cache,
// every answer byte-equal to a local run; the second is all cache hits, and
// builds and simulates nothing.
func TestVerifiedLoadAgainstService(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer ts.Close()

	for pass, want := range []map[string]int{
		{"run": 12, "cache": 12},
		{"cache": 24},
	} {
		res, err := load(ts.Client(), ts.URL, 1, 24, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 || res.Mismatches != 0 || res.Verified != 24 {
			t.Errorf("pass %d: %d errors, %d mismatches, %d verified; want 0, 0, 24",
				pass, res.Errors, res.Mismatches, res.Verified)
		}
		if !maps.Equal(res.Sources, want) {
			t.Errorf("pass %d: responses by source %v, want %v", pass, res.Sources, want)
		}
		for _, k := range []string{"cache_misses", "sim_runs_total", "program_builds_total"} {
			if got := res.Metrics[k]; got != 12.0 {
				t.Errorf("pass %d: server %s = %v, want 12", pass, k, got)
			}
		}
	}
}
