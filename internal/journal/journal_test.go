package journal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
)

type rec struct {
	N int `json:"n"`
}

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func appendAll(t *testing.T, j *Journal, ns ...int) {
	t.Helper()
	for _, n := range ns {
		if err := j.Append(rec{n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func ns(recs []rec) []int {
	var out []int
	for _, r := range recs {
		out = append(out, r.N)
	}
	return out
}

// TestResumeTruncatesTornTail: a torn final line — unparsable, or whole JSON
// whose newline never reached the disk — is dropped and cut off the file, so
// records appended after the resume land on clean lines and the next resume
// sees every one of them.
func TestResumeTruncatesTornTail(t *testing.T) {
	for name, torn := range map[string]string{
		"half record":       `{"n":`,
		"missing newline":   `{"n":9}`,
		"torn then blanks":  "{\"n\n\n  \n",
		"unterminated junk": "\x00\x00\x00",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			write(t, path, "{\"n\":1}\n\n{\"n\":2}\n"+torn)
			j, recs, err := Open[rec](path, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := ns(recs); !slices.Equal(got, []int{1, 2}) {
				t.Fatalf("resumed %v, want [1 2]", got)
			}
			if got := read(t, path); got != "{\"n\":1}\n\n{\"n\":2}\n" {
				t.Fatalf("torn tail not truncated: %q", got)
			}
			appendAll(t, j, 3, 4)
			j, recs, err = Open[rec](path, true)
			if err != nil {
				t.Fatalf("second resume: %v", err)
			}
			defer j.Close()
			if got := ns(recs); !slices.Equal(got, []int{1, 2, 3, 4}) {
				t.Fatalf("second resume got %v, want [1 2 3 4]", got)
			}
		})
	}
}

// TestCorruptionBeforeLastLineRejected: only the final line can be a torn
// write; a bad line anywhere else is reported with its line number and the
// file is left alone.
func TestCorruptionBeforeLastLineRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	content := "{\"n\":1}\n\n{\"n\":\n{\"n\":3}\n"
	write(t, path, content)
	_, _, err := Open[rec](path, true)
	if err == nil || !strings.Contains(err.Error(), "line 3:") {
		t.Fatalf("want a line 3 error, got %v", err)
	}
	if got := read(t, path); got != content {
		t.Fatalf("rejected journal was modified: %q", got)
	}

	// A well-formed line of the wrong shape is corruption too.
	write(t, path, "{\"n\":\"one\"}\n{\"n\":2}\n")
	if _, _, err := Open[rec](path, true); err == nil || !strings.Contains(err.Error(), "line 1:") {
		t.Fatalf("want a line 1 error, got %v", err)
	}
}

// TestResumeMissingOrEmpty: resuming a journal that does not exist yet, or
// holds nothing, is a fresh start that creates the file.
func TestResumeMissingOrEmpty(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	write(t, empty, "")
	for _, path := range []string{filepath.Join(dir, "missing.jsonl"), empty} {
		j, recs, err := Open[rec](path, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("%s: resumed %v from nothing", path, recs)
		}
		appendAll(t, j, 7)
		if got := read(t, path); got != "{\"n\":7}\n" {
			t.Fatalf("%s: holds %q", path, got)
		}
	}
}

// TestFreshOpenTruncates: without resume, earlier records are discarded.
func TestFreshOpenTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	write(t, path, "{\"n\":1}\n{\"n\":2}\n")
	j, recs, err := Open[rec](path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh open returned %v", recs)
	}
	appendAll(t, j, 3)
	if got := read(t, path); got != "{\"n\":3}\n" {
		t.Fatalf("fresh open kept old records: %q", got)
	}
}

// TestAppendErrorIsSticky: a failed write is returned by that Append, by
// every later one (a partial line must not be followed by whole ones), and
// by Close.
func TestAppendErrorIsSticky(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	j, _, err := Open[rec]("/dev/full", false)
	if err != nil {
		t.Fatal(err)
	}
	first := j.Append(rec{1})
	if !errors.Is(first, syscall.ENOSPC) {
		t.Fatalf("append to a full device: %v, want ENOSPC", first)
	}
	if err := j.Append(rec{2}); err != first {
		t.Fatalf("second append: %v, want the first error again", err)
	}
	if err := j.Close(); err != first {
		t.Fatalf("Close: %v, want the append error", err)
	}
}

// FuzzJournalOpen: resuming arbitrary file bytes never panics. It either
// fails and leaves the file alone, or returns records from complete lines and
// leaves a prefix of the file that resumes to the same records, with the next
// Append landing on a line of its own.
func FuzzJournalOpen(f *testing.F) {
	for _, seed := range []string{
		"", "{\"n\":1}\n\n{\"n\":2}\n", `{"n":`, `{"n":9}`, "{\"n\n\n  \n", "\x00\x00\x00",
		"{\"n\":1}\n\n{\"n\":\n{\"n\":3}\n", "{\"n\":\"one\"}\n{\"n\":2}\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := Open[rec](path, true)
		if err != nil {
			if got := read(t, path); got != string(data) {
				t.Fatalf("rejected journal was modified: %q -> %q", data, got)
			}
			return
		}
		kept := read(t, path)
		if !strings.HasPrefix(string(data), kept) {
			t.Fatalf("resume rewrote the journal: %q -> %q", data, kept)
		}
		if lines := strings.Count(kept, "\n"); len(recs) > lines {
			t.Fatalf("%d records from %d complete lines of %q", len(recs), lines, kept)
		}
		appendAll(t, j, -1)
		j, again, err := Open[rec](path, true)
		if err != nil {
			t.Fatalf("second resume of %q: %v", read(t, path), err)
		}
		j.Close()
		if want := append(ns(recs), -1); !slices.Equal(ns(again), want) {
			t.Fatalf("second resume of %q got %v, want %v", read(t, path), ns(again), want)
		}
	})
}
