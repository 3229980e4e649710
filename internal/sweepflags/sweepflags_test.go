package sweepflags

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"braid/internal/remote"
	"braid/internal/uarch"
)

// TestSuiteFlagDefaults pins every shared flag's name and default: command
// lines, CI steps and bench/ depend on them.
func TestSuiteFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	AddSuite(fs)
	want := map[string]string{
		"dyn":           "30000",
		"j":             strconv.Itoa(runtime.GOMAXPROCS(0)),
		"sample":        "",
		"checkpoint":    "",
		"resume":        "false",
		"crashdir":      "crashes",
		"sim-timeout":   "0s",
		"remote":        "",
		"hedge":         "false",
		"remote-verify": "0",
		"fallback":      "fail",
		"probe":         "0s",
	}
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		def, ok := want[f.Name]
		switch {
		case !ok:
			t.Errorf("unexpected flag -%s", f.Name)
		case f.DefValue != def:
			t.Errorf("-%s defaults to %q, want %q", f.Name, f.DefValue, def)
		}
	})
	if n != len(want) {
		t.Errorf("%d flags registered, want %d", n, len(want))
	}
}

// TestLoadExitStatus: a Ctrl-C during suite preparation exits 130, like one
// during the sweep, and any other set-up error exits 1. A flag that the
// others would leave without effect is such an error, and names the flag.
func TestLoadExitStatus(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	bg := context.Background()
	for _, c := range []struct {
		name string
		ctx  context.Context
		args []string
		want int
		flag string // named in the error, when set
	}{
		{"canceled", canceled, nil, 130, ""},
		{"budget too small", bg, []string{"-dyn", "10"}, 1, ""},
		{"bad geometry", bg, []string{"-sample", "5000:100000"}, 1, ""},
		{"bad fallback", bg, []string{"-fallback", "bogus"}, 1, "-fallback"},
		{"resume without checkpoint", bg, []string{"-resume"}, 1, "-resume"},
		{"hedge without remote", bg, []string{"-hedge"}, 1, "-hedge"},
		{"verify without remote", bg, []string{"-remote-verify", "2"}, 1, "-remote-verify"},
		{"probe without remote", bg, []string{"-probe", "1s"}, 1, "-probe"},
		{"local fallback without remote", bg, []string{"-fallback", "local"}, 1, "-fallback"},
	} {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		s := AddSuite(fs)
		if err := fs.Parse(append([]string{"-j", "1"}, c.args...)); err != nil {
			t.Fatal(err)
		}
		_, err := s.Load(c.ctx, "test")
		if err == nil {
			t.Errorf("%s: Load succeeded", c.name)
			continue
		}
		if got := status(err); got != c.want {
			t.Errorf("%s: %v maps to exit status %d, want %d", c.name, err, got, c.want)
		}
		if !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s: %q does not name %s", c.name, err, c.flag)
		}
	}

	// The same flags pass with what they need.
	for _, args := range [][]string{
		{"-checkpoint", "f", "-resume"},
		{"-remote", "h", "-hedge", "-remote-verify", "2", "-probe", "1s", "-fallback", "local"},
		{"-remote-verify", "0", "-probe", "0", "-fallback", "fail"},
	} {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		s := AddSuite(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := s.check(); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// TestFailedVerificationRemovesCheckpoint: a sweep over a backend that
// answers every point with wrong, correctly signed Stats fails verification
// on the points -remote-verify samples and journals the rest. Finish must
// remove the checkpoint, or -resume would restore those wrong results.
func TestFailedVerificationRemovesCheckpoint(t *testing.T) {
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := []byte(`{"stats":{"Cycles":1,"Retired":1},"source":"run"}` + "\n")
		sum := sha256.Sum256(body)
		w.Header().Set("X-Braid-Body-SHA256", hex.EncodeToString(sum[:]))
		w.Write(body)
	}))
	defer lying.Close()
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	s := AddSuite(fs)
	if err := fs.Parse([]string{"-dyn", "2000", "-j", "1", "-remote", lying.URL, "-remote-verify", "2", "-checkpoint", ckpt}); err != nil {
		t.Fatal(err)
	}
	sw, err := s.Load(context.Background(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Attach(context.Background()); err != nil {
		t.Fatal(err)
	}
	flagged, journaled := 0, 0
	for _, b := range sw.Benches[:8] {
		_, err := sw.IPC(b, false, uarch.OutOfOrderConfig(8))
		var ve *remote.VerifyError
		switch {
		case errors.As(err, &ve):
			flagged++
		case err != nil:
			t.Fatal(err)
		default:
			journaled++
		}
	}
	if flagged == 0 || journaled == 0 {
		t.Fatalf("%d points failed verification and %d were journaled; want some of each", flagged, journaled)
	}
	if err := sw.Finish("failed:", "done"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the checkpoint of a sweep that failed verification survived Finish (stat: %v)", err)
	}
}
