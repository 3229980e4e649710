package main

import (
	"flag"
	"strings"
	"testing"

	"braid/internal/sweepflags"
)

// TestAccuracyRejectsSweepFlags: -sampling-accuracy simulates in-process,
// so -remote, -checkpoint and -sim-timeout are each refused by name, and
// the flags it honors pass.
func TestAccuracyRejectsSweepFlags(t *testing.T) {
	for _, c := range []struct {
		args string
		flag string // named in the error; empty: accepted
	}{
		{"-remote 127.0.0.1:1", "-remote"},
		{"-checkpoint acc.ckpt", "-checkpoint"},
		{"-sim-timeout 1ns", "-sim-timeout"},
		{"-dyn 2000 -sample 1000:200:200 -j 1 -crashdir c -sim-timeout 0", ""},
	} {
		fs := flag.NewFlagSet("braidbench", flag.ContinueOnError)
		sweepflags.AddSuite(fs)
		if err := fs.Parse(strings.Fields(c.args)); err != nil {
			t.Fatal(err)
		}
		err := checkAccuracyFlags(fs)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%s: %v", c.args, err)
		case c.flag != "" && (err == nil || !strings.Contains(err.Error(), c.flag)):
			t.Errorf("%s: error %v, want one naming %s", c.args, err, c.flag)
		}
	}
}
