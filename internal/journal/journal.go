// Package journal is the append-only JSONL file behind the repository's one
// checkpoint, the completed simulations braidbench and braidtune share. One
// JSON value per line; each Append is a single write followed by an fsync,
// so a crash can tear at most the final line.
//
// Open on resume returns the complete lines and repairs the file for
// appending: a torn final line is dropped and truncated off, so the next
// record starts on a clean line instead of being glued onto the torn half.
// What the records mean — deduplication, which records apply — stays with
// the caller.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal is an open append-only JSONL file. It is safe for concurrent use.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	err error // first failed Append; every later Append returns it
}

// Open opens the journal at path. With resume false the file is created or
// truncated and no records are returned. With resume true a missing file is
// created and an existing one is decoded line by line into T: blank lines
// are skipped, a final line that is unterminated or does not decode is a torn
// write and is truncated off the file, and a line before the last that does
// not decode is an error naming its line number.
func Open[T any](path string, resume bool) (*Journal, []T, error) {
	flag := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if !resume {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, nil, err
	}
	var recs []T
	if resume {
		if recs, err = load[T](f); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal %s: %w", path, err)
		}
	}
	return &Journal{f: f}, recs, nil
}

// load decodes f's complete lines and truncates a torn final line off f.
func load[T any](f *os.File) ([]T, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	var recs []T
	for off, n := 0, 1; off < len(data); n++ {
		line, rest, whole := bytes.Cut(data[off:], []byte{'\n'})
		if raw := bytes.TrimSpace(line); len(raw) > 0 {
			var rec T
			err := json.Unmarshal(raw, &rec)
			if err == nil && !whole {
				err = io.ErrUnexpectedEOF // the write never reached its newline
			}
			switch {
			case err == nil:
				recs = append(recs, rec)
			case len(bytes.TrimSpace(rest)) == 0:
				return recs, f.Truncate(int64(off))
			default:
				return nil, fmt.Errorf("line %d: %w", n, err)
			}
		}
		off = len(data) - len(rest)
	}
	return recs, nil
}

// Append writes v as one JSON line in a single write and fsyncs it. After a
// failed Append the journal may end in a partial line, so it refuses every
// later Append with the same error; Close reports it too.
func (j *Journal) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, err = j.f.Write(append(data, '\n')); err == nil {
		err = j.f.Sync()
	}
	j.err = err
	return err
}

// Close closes the file and returns the first Append error, if any, else the
// error from closing.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Close(); j.err == nil {
		j.err = err
	}
	return j.err
}
