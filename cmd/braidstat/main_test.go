package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parentFormatRecord is a braidstat -suite -values -iters 2 -checkpoint line
// as written before checkpoints moved onto internal/journal; files in this
// format must keep resuming.
const parentFormatRecord = `{"name":"bzip2","iters":2,"values_only":true,"report":"values: 145\nfanout: unused=4.8% once=74.5% ≤2=86.2%\nlifetime ≤  4: 67.4%\nlifetime ≤  8: 67.4%\nlifetime ≤ 16: 71.0%\nlifetime ≤ 32: 75.4%\nlifetime ≤ 64: 87.0%\nlifetime ≤128: 89.9%\nlifetime ≤256: 100.0%\n"}`

// TestStatCheckpointResume: resume restores exactly the records taken with
// the run's characterization parameters — a mismatch in any of them skips
// the record — and drops a torn final line.
func TestStatCheckpointResume(t *testing.T) {
	key := statRecord{Iters: 2, ValuesOnly: true}
	rows := []struct {
		name    string
		change  func(*statRecord)
		restore bool
	}{
		{"match", func(*statRecord) {}, true},
		{"iters", func(r *statRecord) { r.Iters = 3 }, false},
		{"values_only", func(r *statRecord) { r.ValuesOnly = false }, false},
		{"ipc", func(r *statRecord) { r.IPC = true }, false},
		{"sampling", func(r *statRecord) { r.Sampling = "100000:5000:5000" }, false},
		{"complexity", func(r *statRecord) { r.Complexity = true }, false},
	}
	content := parentFormatRecord + "\n"
	for _, row := range rows {
		rec := key
		rec.Name, rec.Report = row.name, row.name+" report\n"
		row.change(&rec)
		line, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		content += string(line) + "\n"
	}
	content += `{"name":"torn","iters":2,"values_only":true,"rep`
	path := filepath.Join(t.TempDir(), "stat.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	j, done, err := openStatCheckpoint(path, true, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if _, ok := done[row.name]; ok != row.restore {
			t.Errorf("%s: restored=%v, want %v", row.name, ok, row.restore)
		}
	}
	if r := done["bzip2"]; !strings.HasPrefix(r, "values: 145\nfanout:") {
		t.Errorf("parent-format record restored as %q", r)
	}
	if len(done) != 2 {
		t.Errorf("restored %d reports, want match and bzip2", len(done))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "torn") {
		t.Error("torn final line left in the checkpoint")
	}
}
