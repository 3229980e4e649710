package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"sort"
	"strings"
	"testing"
)

// TestSuiteReportDigests pins braidstat's flag set and the -suite text it
// prints, built through the same path as main.
func TestSuiteReportDigests(t *testing.T) {
	fs := flag.NewFlagSet("braidstat", flag.ContinueOnError)
	addFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	if got, want := strings.Join(names, " "), "bench complexity ipc iters j kernel suite values"; got != want {
		t.Errorf("flags: %s, want %s", got, want)
	}

	for _, c := range []struct {
		args   string
		sha256 string
	}{
		{"-suite -iters 20 -ipc -complexity", "47f6ab2b4321a15a13f2dd998f7fb37d1c6a1461cb2f9a23f5b8153f40cf6056"},
		{"-suite -values -iters 10", "59c7ebf6636748c68028772f4d103779a17b4ba2ecb02a8304c0aa1ae22041fe"},
	} {
		fs := flag.NewFlagSet("braidstat", flag.ContinueOnError)
		o := addFlags(fs)
		if err := fs.Parse(strings.Fields(c.args)); err != nil {
			t.Fatal(err)
		}
		out, err := o.run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != c.sha256 {
			t.Errorf("%s: output digest %s, want %s", c.args, got, c.sha256)
		}
	}
}
