// Package jsonl is the crash-safe append-only log behind the turnscan
// checkpoint log and the turnserver job journal: one JSON object per
// line, each line written in one write and fsynced before Append
// returns.
//
// A process killed mid-write leaves at most one torn, unterminated
// final line. Open ends such a file with a newline before the first
// append, so the fragment stays an isolated line instead of swallowing
// the next record, and Read skips every line that does not decode.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// maxLine caps one line. Journal done entries embed a whole figure's
// JSON, so lines run far past bufio.Scanner's 64 KB default.
const maxLine = 16 << 20

// Log is an open log file. A nil *Log is a valid no-op log.
type Log struct {
	mu sync.Mutex
	f  *os.File
}

// Open opens the log at path for appending, creating it when missing.
// If the file does not end in a newline (the previous writer died
// mid-line), a newline is written first.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := terminate(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("jsonl: repair %s: %w", path, err)
	}
	return &Log{f: f}, nil
}

// terminate appends a newline to a non-empty file whose last byte is
// not one.
func terminate(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	_, err = f.Write([]byte{'\n'})
	return err
}

// Append marshals v and writes it as one line, then syncs the file, so
// a record Append has returned survives even a machine crash. Appends
// from several goroutines are serialized. On a nil *Log it does
// nothing.
func (l *Log) Append(v any) error {
	if l == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the file. On a nil *Log it does nothing.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Read decodes every line of the log at path into a T, in file order.
// A missing file is an empty log; blank lines and lines that do not
// decode (torn writes) are skipped.
func Read[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []T
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), maxLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var v T
		if json.Unmarshal(line, &v) == nil {
			out = append(out, v)
		}
	}
	return out, sc.Err()
}
